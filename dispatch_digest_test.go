package asyncnoc_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"asyncnoc"
)

// Dispatch-order locks. The golden tests round to four decimals, so a
// change that only reorders events at the same picosecond can slip past
// them. Such a reordering is not harmless: a fanin forwards the first
// header to dispatch, so the kernel's FIFO order among simultaneous
// events picks arbitration winners. These digests hash the full JSONL
// trace and the full-precision RunResult JSON of a set of CI-scale runs,
// so any change in dispatch order that reaches a flit fails here.

// digestCase is one locked run.
type digestCase struct {
	name string
	spec asyncnoc.NetworkSpec
	cfg  asyncnoc.RunConfig
}

// digestCases builds the locked runs: the six architectures, the
// path-based and DPM strategies on the optimized hybrid fabric under two
// benchmarks, one fault run at 1e-3 and one 2x2 chiplet of 4x4 dies.
func digestCases(t *testing.T) []digestCase {
	t.Helper()
	var cases []digestCase
	for _, spec := range asyncnoc.AllNetworks(8) {
		cases = append(cases, digestCase{spec.Name, spec, goldenCfg()})
	}
	opt, err := asyncnoc.NetworkByName(8, "OptHybridSpeculative")
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"PathBased", "DPM"} {
		for _, benchName := range []string{"Multicast10", "Hotspot"} {
			bench, err := asyncnoc.BenchmarkByName(8, benchName)
			if err != nil {
				t.Fatal(err)
			}
			cfg := goldenCfg()
			cfg.Bench = bench
			spec := asyncnoc.WithStrategy(opt, strat)
			cases = append(cases, digestCase{spec.Name + "/" + benchName, spec, cfg})
		}
	}
	faulty, err := asyncnoc.NetworkByName(8, "BasicHybridSpeculative")
	if err != nil {
		t.Fatal(err)
	}
	faulty.Faults = asyncnoc.FaultConfig{Seed: 7, CorruptRate: 1e-3, DropRate: 1e-3}
	cases = append(cases, digestCase{"BasicHybridSpeculative/faults=1e-3", faulty, goldenCfg()})
	chip := chipletSpec(t, "OptHybridSpeculative", 4, 2, 2)
	cases = append(cases, digestCase{chip.Name, chip, chipletCfg(t, chip)})
	return cases
}

// runDigests runs one case with a JSONL trace attached and returns the
// result with the SHA-256 of the trace and of the result's JSON encoding.
func runDigests(t *testing.T, c digestCase) (res asyncnoc.RunResult, trace, result string) {
	t.Helper()
	var buf bytes.Buffer
	cfg := c.cfg
	cfg.Instruments = []asyncnoc.Instrument{&asyncnoc.TraceInstrument{Out: &buf}}
	res, err := asyncnoc.Run(c.spec, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s: empty trace", c.name)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	ts, rs := sha256.Sum256(buf.Bytes()), sha256.Sum256(js)
	return res, hex.EncodeToString(ts[:]), hex.EncodeToString(rs[:])
}

func TestDispatchOrderDigests(t *testing.T) {
	// name: {trace digest, result digest}.
	want := map[string][2]string{
		"Baseline":                                   {"5a348caf85a10a3ddddf97b1a59e426915f36602bd507bfa6135b001f4d7af91", "96fc28c16e91987e595b3c16512f4924343f7f6593ab074cc6eeb194fbebc5cc"},
		"BasicNonSpeculative":                        {"522cc10c0d2d1491dee949d3136b562a13910d3e122b06a0d9e3d6abc33af3a7", "fd85c784feec4abd1b0c884f367f0edb79f0bfe613f2d5f44c56b37c45818934"},
		"BasicHybridSpeculative":                     {"afd293e6684ec126f44fcc760d6199a3e521ab2f3fd1f21cf55d103fa2acc0b0", "8d7a7dae6ae6cfb8c498b84cefc03cbc4308cf5a7380dc19a842fa6ae57d8164"},
		"OptHybridSpeculative":                       {"4ad837c2388567856154b769f21dc224b94d0931fe31b61d37404b6e7cac4ce1", "ec101a212b069ed32d304633e4ce96b55de376d51a6f9a7b52ed15f502dbbba1"},
		"OptNonSpeculative":                          {"69b925fa2d46712fdf694581455a6cbf984e82fed432e8732d1b873a4a586fcf", "2aa1645fb6c9ef90b4f5aed000e9df151275b3c1eb362b5dead23aa16a937818"},
		"OptAllSpeculative":                          {"b78d1221bb468e489823452e872ab5f428ea0edea0ec3927fd5ecd00453e59d8", "ca8e1994ff2941216cb91014b14952741a12f51e392908bcafd653da29baf409"},
		"OptHybridSpeculative+PathBased/Multicast10": {"54b0a6dc1e72f4be843048475fd2e2d25aecbe0fd973f04663adf5b2d7646d95", "28d1efb9d9b141b966b36eee232df6853ba9b4f213785c157b939e092f2ad6cc"},
		"OptHybridSpeculative+PathBased/Hotspot":     {"15a922e89390a5cbded1699bd480cb06cb48528c5affcbc1b32e469a5ccbb307", "04d937dbf3b16eed97234bad598a84c05bc6a2521bfdb9d93de7382ab99c1d55"},
		"OptHybridSpeculative+DPM/Multicast10":       {"4ad837c2388567856154b769f21dc224b94d0931fe31b61d37404b6e7cac4ce1", "5844891b7aa2acd3de593d50e2114bfd8611d1fc5ede781c31aa51a702f03152"},
		"OptHybridSpeculative+DPM/Hotspot":           {"15a922e89390a5cbded1699bd480cb06cb48528c5affcbc1b32e469a5ccbb307", "2bc5ccb7596ae449c18efbaedf8f72525b5b4f71a245c970caf5703cdc21eaf6"},
		"BasicHybridSpeculative/faults=1e-3":         {"9e9efea45e412a5041ac2f3a1700e0c309d69e70a3be33ac4f9dae60fca9e7af", "2ab30ffb245466ec3ec482a2b96bc476518854d3c1521d856a812a771d612b65"},
		"OptHybridSpeculative@2x2of4":                {"69b9084ad91ceae55809bf35a37b2948d58669bbdb46a0b059e730eba6d0c095", "4feb17f9fa45edcb2316e8901a13c81eaf7a68de4d3688d6f770338763760567"},
	}
	for _, c := range digestCases(t) {
		res, trace, result := runDigests(t, c)
		if c.spec.Faults.Enabled() && res.FaultsInjected == 0 {
			t.Errorf("%s: no faults injected", c.name)
		}
		w, ok := want[c.name]
		if !ok {
			t.Errorf("no digests recorded for %s:\n\t%q: {%q, %q},", c.name, c.name, trace, result)
			continue
		}
		if trace != w[0] {
			t.Errorf("%s: trace digest %s, want %s", c.name, trace, w[0])
		}
		if result != w[1] {
			t.Errorf("%s: result digest %s, want %s", c.name, result, w[1])
		}
	}
}
