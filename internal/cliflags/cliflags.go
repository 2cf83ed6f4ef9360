// Package cliflags holds the flag definitions, the -topology resolver and
// the profiling and engine wiring shared by the command-line tools
// (motsim, experiments, loadsweep, replay). Every tool registers the same
// flag names with the same help strings, resolves -topology to its run
// spec the same way and reports the same errors, so workflows transfer
// between tools verbatim.
package cliflags

import (
	"flag"
	"fmt"
	"os"
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
		purpose+" parallelism (0 = GOMAXPROCS)")
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

// String is the selection's canonical -topology spelling.
func (t Topology) String() string {
	if t.Kind == "mot" {
		return t.Kind
	}
	return fmt.Sprintf("%s:%dx%d", t.Kind, t.W, t.H)
}

// Spec resolves the command's run spec from base, the single-die MoT spec
// its -network, -n and -strategy flags name: mot runs base itself,
// chiplet:WxH composes base onto a WxH interposer of serial die-to-die
// links, and mesh:WxH is a WxH tree-multicast mesh under base's routing
// strategy (the mesh has one architecture, and its W*H tiles are its
// terminals).
func (t Topology) Spec(base asyncnoc.NetworkSpec) asyncnoc.NetworkSpec {
	switch t.Kind {
	case "chiplet":
		return asyncnoc.WithChiplet(base, asyncnoc.ChipletSerial(t.W, t.H))
	case "mesh":
		spec := asyncnoc.MeshTree(t.W, t.H)
		spec.Strategy = base.Strategy
		return spec
	}
	return base
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

// Unsupported names, per topology, the flags a command cannot honour
// there. A name ending in "*" stands for every flag with that prefix.
type Unsupported struct {
	Mesh, Chiplet []string
}

// Check fails with an error naming each flag set on fs that the
// selection cannot honour under u: a flag either acts or is rejected,
// never silently ignored.
func (t Topology) Check(fs *flag.FlagSet, u Unsupported) error {
	var names []string
	switch t.Kind {
	case "mesh":
		names = u.Mesh
	case "chiplet":
		names = u.Chiplet
	}
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		for _, name := range names {
			if prefix, ok := strings.CutSuffix(name, "*"); f.Name == name || ok && strings.HasPrefix(f.Name, prefix) {
				bad = append(bad, "-"+f.Name)
				return
			}
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("-topology %s does not support %s", t, strings.Join(bad, ", "))
	}
	return nil
}

// Profiler is the shared -cpuprofile/-memprofile pair.
type Profiler struct{ cpu, mem *string }

// Profiles registers the shared -cpuprofile and -memprofile flags.
func Profiles() *Profiler {
	return &Profiler{
		cpu: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: flag.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins the CPU profile -cpuprofile names, if any. The returned
// stop, which the caller defers, writes the heap profile -memprofile
// names, if any, then ends the CPU profile; a failed heap write is
// reported on stderr under the tool's name.
func (p *Profiler) Start(tool string) (stop func(), err error) {
	stopCPU := func() error { return nil }
	if *p.cpu != "" {
		if stopCPU, err = asyncnoc.StartCPUProfile(*p.cpu); err != nil {
			return nil, err
		}
	}
	return func() {
		if *p.mem != "" {
			if err := asyncnoc.WriteHeapProfile(*p.mem); err != nil {
				fmt.Fprintln(os.Stderr, tool+":", err)
			}
		}
		stopCPU() //nolint:errcheck
	}, nil
}

// EngineFlags is the shared -cache-dir/-http pair.
type EngineFlags struct{ cacheDir, http *string }

// Engine registers the shared -cache-dir and -http flags.
func Engine() *EngineFlags {
	return &EngineFlags{
		cacheDir: flag.String("cache-dir", "", "persistent result store directory (shared warm cache)"),
		http:     flag.String("http", "", "serve live expvar counters and pprof on this address (e.g. :8090)"),
	}
}

// Attach puts the -cache-dir store behind e and serves the -http monitor
// over e and progress (which may be nil), announcing each on stderr. The
// returned close, which the caller defers, stops the monitor, flushes
// the store and then reports its counters on stderr.
func (f *EngineFlags) Attach(e *asyncnoc.Engine, progress *asyncnoc.SweepProgress) (close func(), err error) {
	var st *asyncnoc.Store
	if *f.cacheDir != "" {
		if st, err = asyncnoc.OpenStore(*f.cacheDir); err != nil {
			return nil, err
		}
		e.SetStore(st)
		fmt.Fprintf(os.Stderr, "store: persistent cache at %s\n", st.Dir())
	}
	var mon *asyncnoc.Monitor
	if *f.http != "" {
		if mon, err = asyncnoc.StartMonitor(*f.http, e, progress); err != nil {
			if st != nil {
				st.Close() //nolint:errcheck
			}
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "monitor: http://%s/debug/vars\n", mon.Addr())
	}
	return func() {
		if mon != nil {
			mon.Close() //nolint:errcheck
		}
		if st != nil {
			st.Close() //nolint:errcheck // Close only flushes; errors are counted
			s := st.Stats()
			fmt.Fprintf(os.Stderr, "store: %d hits, %d misses, %d corrupt healed, %d writes (%d errors)\n",
				s.Hits, s.Misses, s.Corrupt, s.Writes, s.WriteErrors)
		}
	}, nil
}
