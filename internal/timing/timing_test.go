package timing

import (
	"sync"
	"testing"

	"asyncnoc/internal/netlist"
)

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no-such-node"); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName did not panic")
		}
	}()
	MustByName("no-such-node")
}

func TestAllNodesHaveParameters(t *testing.T) {
	for _, name := range netlist.AllNodeNames() {
		n, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n.AreaUm2 <= 0 || n.FwdHeader <= 0 || n.FwdBody <= 0 || n.AckDelay <= 0 {
			t.Errorf("%s: non-positive parameters %+v", name, n)
		}
	}
}

// TestDerivedFromNetlists pins the derived parameters against the
// designed gate-level paths (Section 5.2(a) plus the secondary arcs).
func TestDerivedFromNetlists(t *testing.T) {
	cases := []struct {
		name                              string
		fwdHdr, fwdBody, ackDelay, thrAck int64
	}{
		{netlist.BaselineFanout, 263, 263, 106, 0},
		{netlist.SpecFanout, 52, 52, 62, 0},
		{netlist.NonSpecFanout, 299, 299, 136, 128},
		{netlist.OptSpecFanout, 120, 120, 62, 178},
		{netlist.OptNonSpecFanout, 279, 100, 136, 128},
		{netlist.FaninNode, 190, 190, 106, 0},
	}
	for _, c := range cases {
		n := MustByName(c.name)
		if int64(n.FwdHeader) != c.fwdHdr || int64(n.FwdBody) != c.fwdBody ||
			int64(n.AckDelay) != c.ackDelay || int64(n.ThrottleAck) != c.thrAck {
			t.Errorf("%s: got fwd=%d body=%d ack=%d thr=%d, want %d/%d/%d/%d",
				c.name, n.FwdHeader, n.FwdBody, n.AckDelay, n.ThrottleAck,
				c.fwdHdr, c.fwdBody, c.ackDelay, c.thrAck)
		}
	}
}

// TestSpeculativeNodesFaster verifies the core premise of local
// speculation: speculative nodes are built for speed.
func TestSpeculativeNodesFaster(t *testing.T) {
	spec := MustByName(netlist.SpecFanout)
	optSpec := MustByName(netlist.OptSpecFanout)
	for _, other := range []string{netlist.BaselineFanout, netlist.NonSpecFanout, netlist.OptNonSpecFanout} {
		o := MustByName(other)
		if spec.FwdHeader >= o.FwdHeader {
			t.Errorf("speculative (%v) not faster than %s (%v)", spec.FwdHeader, other, o.FwdHeader)
		}
		if optSpec.FwdHeader >= o.FwdHeader {
			t.Errorf("opt speculative (%v) not faster than %s (%v)", optSpec.FwdHeader, other, o.FwdHeader)
		}
	}
}

func TestChannelConstantsPositive(t *testing.T) {
	if ChannelFwd <= 0 || ChannelAck <= 0 || NICycle <= 0 || SinkAck <= 0 {
		t.Error("non-positive channel constants")
	}
}

// TestByNameConcurrent looks every node type up from several goroutines
// at once, as engine workers building networks do: each type is derived
// once and every caller reads the same parameters.
func TestByNameConcurrent(t *testing.T) {
	names := append(netlist.AllNodeNames(), netlist.MeshRouter)
	want := make(map[string]Node, len(names))
	for _, name := range names {
		n, err := derive(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = n
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				name := names[(i+g)%len(names)]
				if n, err := ByName(name); err != nil || n != want[name] {
					t.Errorf("%s: %+v, %v; want %+v", name, n, err, want[name])
				}
			}
		}()
	}
	wg.Wait()
}
