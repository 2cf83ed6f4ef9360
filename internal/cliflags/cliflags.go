// Package cliflags holds the flag definitions and the -topology parser
// shared by the command-line tools (motsim, experiments, loadsweep,
// replay). Every tool registers the same flag names with the same help
// strings and reports the same parse errors, so workflows transfer
// between tools verbatim.
package cliflags

import (
	"flag"
	"fmt"
	"strings"

	"asyncnoc"
)

// N registers the shared -n flag: the MoT die radix.
func N() *int {
	return flag.Int("n", 8, "MoT radix (power of two)")
}

// Workers registers the shared -workers flag; purpose names what the
// pool parallelizes (e.g. "simulation").
func Workers(purpose string) *int {
	return flag.Int("workers", 0,
		purpose+" parallelism (0 = $ASYNCNOC_WORKERS or GOMAXPROCS)")
}

// Dests registers the shared -dests flag for fixed destination sets.
func Dests() *string {
	return flag.String("dests", "", "fixed destination set, e.g. 1,3,5 (overrides -bench)")
}

// TopologyFlag registers the shared -topology flag.
func TopologyFlag() *string {
	return flag.String("topology", "mot",
		"topology: mot (one MoT die), mesh:WxH (asynchronous 2D mesh of XY routers), or chiplet:WxH (WxH interposer mesh of MoT dies)")
}

// Topology is a parsed -topology selection.
type Topology struct {
	// Kind is "mot", "mesh", or "chiplet".
	Kind string
	// W and H are the mesh dimensions (mesh and chiplet kinds only).
	W, H int
}

// ParseTopology parses a -topology value. The grammar and the error
// message are shared by every tool.
func ParseTopology(s string) (Topology, error) {
	bad := func() (Topology, error) {
		return Topology{}, fmt.Errorf("bad -topology %q (want mot, mesh:WxH, or chiplet:WxH)", s)
	}
	if s == "" || s == "mot" {
		return Topology{Kind: "mot"}, nil
	}
	kind, dims, ok := strings.Cut(s, ":")
	if !ok || (kind != "mesh" && kind != "chiplet") {
		return bad()
	}
	var w, h int
	if n, err := fmt.Sscanf(dims, "%dx%d", &w, &h); n != 2 || err != nil || w < 1 || h < 1 {
		return bad()
	}
	return Topology{Kind: kind, W: w, H: h}, nil
}

// Compose applies a chiplet selection to a single-die spec. For "mot"
// the spec passes through; for "mesh" the caller must dispatch to the
// mesh runner instead (see MeshSpec).
func (t Topology) Compose(spec asyncnoc.NetworkSpec) asyncnoc.NetworkSpec {
	if t.Kind == "chiplet" {
		return asyncnoc.WithChiplet(spec, asyncnoc.ChipletSerial(t.W, t.H))
	}
	return spec
}

// Bench resolves a benchmark reporting name against the selection: the
// chiplet kind needs the hierarchical wide benchmarks, and a mesh's
// destination space is its W*H tiles rather than the die radix.
func (t Topology) Bench(n int, name string) (asyncnoc.Benchmark, error) {
	switch t.Kind {
	case "chiplet":
		return asyncnoc.ChipletBenchmarkByName(asyncnoc.ChipletSerial(t.W, t.H), n, name)
	case "mesh":
		return asyncnoc.BenchmarkByName(t.W*t.H, name)
	}
	return asyncnoc.BenchmarkByName(n, name)
}

// meshUnsupported names the flags a mesh run cannot honour besides the
// fault flags (every -fault*): the mesh has one architecture, no die
// radix (its W*H tiles are the terminals), no instruments, no fixed
// destination sets and no saturation search.
var meshUnsupported = map[string]bool{
	"network": true, "n": true, "sat": true, "util": true, "hist": true,
	"draw": true, "vcd": true, "trace-out": true, "dests": true,
}

// MeshSpec returns the asynchronous 2D mesh spec of a "mesh" selection
// under the named routing strategy (empty = the mesh's default). fs is
// the parsed command line: a flag set on it that a mesh run cannot
// honour is an error naming the flag, never a silent no-op.
func (t Topology) MeshSpec(strategy string, fs *flag.FlagSet) (asyncnoc.MeshSpec, error) {
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if meshUnsupported[f.Name] || strings.HasPrefix(f.Name, "fault") {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return asyncnoc.MeshSpec{}, fmt.Errorf("-topology mesh:%dx%d supports only plain fixed-load runs; unsupported: %s",
			t.W, t.H, strings.Join(bad, ", "))
	}
	spec := asyncnoc.MeshTree(t.W, t.H)
	spec.Strategy = strategy
	return spec, nil
}
