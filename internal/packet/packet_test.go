package packet

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDestSetBasics(t *testing.T) {
	s := Dests(0, 3, 7)
	if !s.Has(0) || !s.Has(3) || !s.Has(7) {
		t.Error("missing members")
	}
	if s.Has(1) || s.Has(63) {
		t.Error("spurious members")
	}
	if s.Count() != 3 {
		t.Errorf("Count() = %d, want 3", s.Count())
	}
	if s.Empty() {
		t.Error("non-empty set reported empty")
	}
	if !DestSet(0).Empty() {
		t.Error("zero set not empty")
	}
}

func TestDestSetAdd(t *testing.T) {
	s := DestSet(0).Add(5).Add(5).Add(2)
	if s.Count() != 2 || !s.Has(5) || !s.Has(2) {
		t.Errorf("Add produced %v", s)
	}
}

func TestRange(t *testing.T) {
	cases := []struct {
		lo, hi int
		want   DestSet
	}{
		{0, 0, 0},
		{3, 3, 0},
		{5, 3, 0},
		{0, 1, 1},
		{0, 8, 0xff},
		{4, 8, 0xf0},
		{0, 64, ^DestSet(0)},
	}
	for _, c := range cases {
		if got := Range(c.lo, c.hi); got != c.want {
			t.Errorf("Range(%d,%d) = %x, want %x", c.lo, c.hi, uint64(got), uint64(c.want))
		}
	}
}

func TestMembersSortedAndFirst(t *testing.T) {
	s := Dests(9, 1, 40)
	m := s.Members()
	want := []int{1, 9, 40}
	if len(m) != 3 {
		t.Fatalf("Members() = %v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("Members() = %v, want %v", m, want)
		}
	}
	if s.First() != 1 {
		t.Errorf("First() = %d, want 1", s.First())
	}
	if DestSet(0).First() != -1 {
		t.Error("First of empty set should be -1")
	}
}

func TestDestSetString(t *testing.T) {
	if got := Dests(2, 5).String(); got != "{2,5}" {
		t.Errorf("String() = %q", got)
	}
	if got := DestSet(0).String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
}

func TestIntersect(t *testing.T) {
	a, b := Dests(1, 2, 3), Dests(2, 3, 4)
	if got := a.Intersect(b); got != Dests(2, 3) {
		t.Errorf("Intersect = %v", got)
	}
}

func TestFlitKinds(t *testing.T) {
	p := &Packet{ID: 1, Length: 5}
	flits := p.Flits()
	if len(flits) != 5 {
		t.Fatalf("Flits() returned %d", len(flits))
	}
	wantKinds := []FlitKind{Header, Body, Body, Body, Tail}
	for i, f := range flits {
		if f.Kind() != wantKinds[i] {
			t.Errorf("flit %d kind %v, want %v", i, f.Kind(), wantKinds[i])
		}
	}
	if !flits[0].IsHeader() || flits[0].IsTail() {
		t.Error("header flags wrong")
	}
	if !flits[4].IsTail() || flits[4].IsHeader() {
		t.Error("tail flags wrong")
	}
}

func TestSingleFlitPacketIsHeaderAndTail(t *testing.T) {
	p := &Packet{Length: 1}
	f := Flit{Pkt: p, Index: 0}
	if !f.IsHeader() || !f.IsTail() {
		t.Error("1-flit packet flit must be header and tail")
	}
	if f.Kind() != Header {
		t.Errorf("Kind() = %v, want header", f.Kind())
	}
}

func TestIsMulticast(t *testing.T) {
	if (&Packet{Dests: Dest(3)}).IsMulticast() {
		t.Error("singleton reported multicast")
	}
	if !(&Packet{Dests: Dests(3, 4)}).IsMulticast() {
		t.Error("pair not reported multicast")
	}
}

func TestFlitString(t *testing.T) {
	p := &Packet{ID: 7, Length: 2}
	if got := (Flit{Pkt: p, Index: 1}).String(); got != "pkt7[1/2:tail]" {
		t.Errorf("String() = %q", got)
	}
}

func TestKindString(t *testing.T) {
	if Header.String() != "header" || Body.String() != "body" || Tail.String() != "tail" {
		t.Error("kind names wrong")
	}
	if FlitKind(9).String() != "FlitKind(9)" {
		t.Error("unknown kind formatting wrong")
	}
}

// Property: Count equals the length of Members, and every member is Has.
func TestCountMembersProperty(t *testing.T) {
	f := func(raw uint64) bool {
		s := DestSet(raw)
		m := s.Members()
		if len(m) != s.Count() {
			return false
		}
		rebuilt := DestSet(0)
		for _, d := range m {
			if !s.Has(d) {
				return false
			}
			rebuilt = rebuilt.Add(d)
		}
		return rebuilt == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ForEach visits exactly the Members, in the same ascending
// order, without allocating.
func TestForEachMatchesMembers(t *testing.T) {
	f := func(raw uint64) bool {
		s := DestSet(raw)
		want := s.Members()
		i := 0
		ok := true
		s.ForEach(func(d int) {
			if i >= len(want) || want[i] != d {
				ok = false
			}
			i++
		})
		return ok && i == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	s := Dests(0, 5, 17, 63)
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		s.ForEach(func(d int) { sink += d })
	}); n != 0 {
		t.Errorf("ForEach allocated %v times per run", n)
	}
}

// The register-resident CRC loop must match the library CRC-32C over the
// payload's little-endian bytes bit for bit — the checksum is part of
// the golden-trace surface.
func TestPayloadCRCMatchesLibrary(t *testing.T) {
	f := func(payload uint64) bool {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], payload)
		return payloadCRC(payload) == crc32.Checksum(b[:], crcTable)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FlitAt must agree with Flits and allocate nothing.
func TestFlitAtMatchesFlits(t *testing.T) {
	p := &Packet{ID: 77, Src: 3, Dests: Dests(1, 4), Length: 5}
	all := p.Flits()
	for i, want := range all {
		if got := p.FlitAt(i); got != want {
			t.Errorf("FlitAt(%d) = %+v, want %+v", i, got, want)
		}
	}
	var sink Flit
	if n := testing.AllocsPerRun(100, func() { sink = p.FlitAt(2) }); n != 0 {
		t.Errorf("FlitAt allocated %v times per run", n)
	}
	_ = sink
}

// TestFlitSize pins the flit layout: every FIFO slot, fanin buffer, NI
// ring slot and channel register holds one, so growth shows up in every
// run's memory.
func TestFlitSize(t *testing.T) {
	if n := unsafe.Sizeof(Flit{}); n != 32 {
		t.Fatalf("Flit is %d bytes, want 32", n)
	}
}

// Property: the derived checksum test decides exactly like a stored
// one. A reference flit carries its payload and the CRC-32C sealed over
// it at materialization; each link fault flips one payload bit (a bit
// may flip twice, cancelling). CheckCRC on the corruption mask must
// agree with recomputing the reference's stored checksum.
func TestCheckCRCMatchesStoredChecksum(t *testing.T) {
	r := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 20000; trial++ {
		p := &Packet{ID: r.Uint64(), Length: 1 + r.Intn(63)}
		i := r.Intn(p.Length)
		f := p.FlitAt(i)
		payload := payloadFor(p.ID, i)
		crc := payloadCRC(payload)
		if !f.CheckCRC() {
			t.Fatalf("clean flit %v fails its checksum", f)
		}
		for flips := 1 + r.Intn(3); flips > 0; flips-- {
			bit := uint64(1) << uint(r.Intn(64))
			payload ^= bit
			f.Flip ^= bit
		}
		if got, want := f.CheckCRC(), payloadCRC(payload) == crc; got != want {
			t.Fatalf("pkt %d flit %d flip %#x: CheckCRC %v, stored checksum says %v", p.ID, i, f.Flip, got, want)
		}
	}
}
