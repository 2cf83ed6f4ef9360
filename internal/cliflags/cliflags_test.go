package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"asyncnoc"
)

// motsimFlags registers the subset of motsim's flags the mesh check
// distinguishes.
func motsimFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("motsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("network", "OptHybridSpeculative", "")
	fs.Int("n", 8, "")
	fs.String("strategy", "", "")
	fs.String("bench", "UniformRandom", "")
	fs.Float64("load", 0.4, "")
	fs.Bool("sat", false, "")
	fs.String("dests", "", "")
	fs.String("trace-out", "", "")
	fs.Float64("faults", 0, "")
	fs.Float64("fault-drop", 0, "")
	fs.Uint64("fault-seed", 1, "")
	fs.String("fault-stuck", "", "")
	return fs
}

// TestMeshSpecFlags: a mesh selection resolves to a mesh spec under the
// base spec's strategy, and Check rejects, by name, every set flag the
// rules list for the mesh (a trailing "*" covering a prefix) while a
// composition applies its own list.
func TestMeshSpecFlags(t *testing.T) {
	rules := Unsupported{
		Mesh:    []string{"network", "n", "dests", "trace-out", "fault*"},
		Chiplet: []string{"dests"},
	}
	mesh := Topology{Kind: "mesh", W: 4, H: 4}
	for _, c := range []struct {
		sel  Topology
		args []string
		bad  string // "" = accepted
	}{
		{mesh, []string{"-bench", "Multicast10", "-load", "0.3"}, ""},
		{mesh, []string{"-strategy", "DPM"}, ""},
		{mesh, []string{"-sat", "-strategy", "SerialUnicast"}, ""},
		{mesh, []string{"-network", "Baseline"}, "-network"},
		{mesh, []string{"-n", "32"}, "-n"},
		{mesh, []string{"-faults", "1e-2"}, "-faults"},
		{mesh, []string{"-fault-drop", "1e-3"}, "-fault-drop"},
		{mesh, []string{"-fault-seed", "7"}, "-fault-seed"},
		{mesh, []string{"-fault-stuck", "0/1/0@5"}, "-fault-stuck"},
		{mesh, []string{"-dests", "1,2"}, "-dests"},
		{mesh, []string{"-trace-out", "t.jsonl"}, "-trace-out"},
		{Topology{Kind: "chiplet", W: 2, H: 2}, []string{"-dests", "1,2"}, "-dests"},
		{Topology{Kind: "chiplet", W: 2, H: 2}, []string{"-faults", "1e-2", "-n", "4"}, ""},
		{Topology{Kind: "mot"}, []string{"-dests", "1,2", "-faults", "1e-2"}, ""},
	} {
		fs := motsimFlags()
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		err := c.sel.Check(fs, rules)
		if c.bad == "" {
			if err != nil {
				t.Errorf("%v %v: %v", c.sel, c.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.bad) || !strings.Contains(err.Error(), c.sel.String()) {
			t.Errorf("%v %v: error %v, want one naming %s and the topology", c.sel, c.args, err, c.bad)
		}
	}
	base := asyncnoc.WithStrategy(asyncnoc.Baseline(8), "DPM")
	spec := Topology{Kind: "mesh", W: 4, H: 4}.Spec(base)
	if spec.Mesh == nil || spec.Strategy != "DPM" || spec.Mesh.W != 4 || spec.Mesh.H != 4 || spec.N != 16 {
		t.Errorf("mesh:4x4 over %s resolved to %+v, want a 4x4 mesh under DPM", base.Name, spec)
	}
	if got := (Topology{Kind: "mot"}).Spec(base); got.CanonicalKey() != base.CanonicalKey() {
		t.Errorf("mot resolved to %+v, want the base spec", got)
	}
	chip := Topology{Kind: "chiplet", W: 2, H: 2}.Spec(base)
	if chip.Chiplet == nil || chip.Chiplet.MeshW != 2 || chip.Chiplet.MeshH != 2 || chip.N != 8 {
		t.Errorf("chiplet:2x2 resolved to %+v, want a 2x2 composition of the base die", chip)
	}
}
