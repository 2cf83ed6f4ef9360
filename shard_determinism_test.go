package asyncnoc_test

import (
	"bytes"
	"fmt"
	"testing"

	"asyncnoc"
)

// Sharded runs are a pure execution-strategy choice: the same (spec,
// config) pair must produce byte-identical results and JSONL traces at
// any shard count. A run shards by die, so this pins that contract for
// every architecture and routing strategy composed as a 2x2 interposer
// of 4x4 dies, at shards 1, 2, and 4.

func TestShardDeterminismAcrossArchitecturesAndStrategies(t *testing.T) {
	var specs []asyncnoc.NetworkSpec
	for _, spec := range asyncnoc.AllNetworks(4) {
		specs = append(specs, spec)
		for _, strat := range asyncnoc.StrategyNames() {
			specs = append(specs, asyncnoc.WithStrategy(spec, strat))
		}
	}
	for _, spec := range specs {
		composed := asyncnoc.WithChiplet(spec, asyncnoc.ChipletSerial(2, 2))
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			wantRes, wantTrace := chipletTracedRun(t, composed, 1)
			if len(wantTrace) == 0 {
				t.Fatal("serial reference produced an empty trace")
			}
			for _, k := range []int{2, 4} {
				gotRes, gotTrace := chipletTracedRun(t, composed, k)
				if gotRes != wantRes {
					t.Errorf("shards=%d result diverged:\n got %+v\nwant %+v", k, gotRes, wantRes)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("shards=%d trace differs from serial (%d vs %d bytes): %s",
						k, len(gotTrace), len(wantTrace), firstTraceDiff(gotTrace, wantTrace))
				}
			}
		})
	}
}

// firstTraceDiff points at the first JSONL line where two traces part.
func firstTraceDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %q want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line count %d vs %d", len(g), len(w))
}
