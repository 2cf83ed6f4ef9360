package store

import (
	"strconv"
	"testing"

	"asyncnoc/internal/core"
)

// FuzzStoreDecode hammers the result and verdict decoders with
// arbitrary bytes: they must never panic, and any input one accepts
// must round-trip back to an equivalent entry (acceptance implies
// integrity — the whole point of the frame is that damaged bytes are
// rejected, so an accepted entry must be a faithful encoding).
func FuzzStoreDecode(f *testing.F) {
	seed, err := Encode(core.RunResult{
		Network: "OptHybridSpeculative", Benchmark: "Multicast10",
		LoadGFs: 0.4, AvgLatencyNs: 11.25, MeasuredPackets: 321, Levels: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(seed[:headerSize])
	trunc := append([]byte{}, seed[:len(seed)-2]...)
	f.Add(trunc)
	flip := append([]byte{}, seed...)
	flip[len(flip)-1] ^= 0xff
	f.Add(flip)
	f.Add(frame(verdictMagic, []byte("true")))
	f.Add(frame(verdictMagic, []byte("1")))
	f.Fuzz(func(t *testing.T, data []byte) {
		if sat, err := decodeVerdict(data); err == nil {
			if re := frame(verdictMagic, strconv.AppendBool(nil, sat)); string(re) != string(data) {
				t.Fatalf("accepted verdict is not canonical:\n in: %x\nout: %x", data, re)
			}
		}
		res, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(res)
		if err != nil {
			t.Fatalf("accepted entry failed to re-encode: %v", err)
		}
		if string(re) != string(data) {
			t.Fatalf("accepted entry is not canonical:\n in: %x\nout: %x", data, re)
		}
	})
}
