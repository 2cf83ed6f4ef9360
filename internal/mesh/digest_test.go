package mesh_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"asyncnoc/internal/core"
	"asyncnoc/internal/mesh"
	"asyncnoc/internal/network"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// TestMeshStrategyDigests locks how every routing strategy partitions
// mesh injections. TestMeshResultsPinned checks rounded figures of the
// default schemes only; these digests hash the full-precision RunResult
// JSON of each {shape} x {tree, serial} x {default + every registered
// scheme} x {UniformRandom, Multicast10} run, so a change in a plan's
// parts, their order or the packet IDs they draw fails here.
func TestMeshStrategyDigests(t *testing.T) {
	want := map[string]string{
		"4x4/serial=false//UniformRandom":                     "a59b4a36ed87a66603bf63271b18385427c2f683689eaa98dd6287f0be39437f",
		"4x4/serial=false//Multicast10":                       "066b5b6eaada4ad7e2353e893e750dd3a08022c05bba03c1d00c12f27176ebb0",
		"4x4/serial=false/SerialUnicast/UniformRandom":        "a59b4a36ed87a66603bf63271b18385427c2f683689eaa98dd6287f0be39437f",
		"4x4/serial=false/SerialUnicast/Multicast10":          "666663cf3988e182b4cc79aea50665a263b0872fba29eab5072dd89bb59f226c",
		"4x4/serial=false/TreeMulticast/UniformRandom":        "a59b4a36ed87a66603bf63271b18385427c2f683689eaa98dd6287f0be39437f",
		"4x4/serial=false/TreeMulticast/Multicast10":          "066b5b6eaada4ad7e2353e893e750dd3a08022c05bba03c1d00c12f27176ebb0",
		"4x4/serial=false/SpeculativeMulticast/UniformRandom": "a59b4a36ed87a66603bf63271b18385427c2f683689eaa98dd6287f0be39437f",
		"4x4/serial=false/SpeculativeMulticast/Multicast10":   "066b5b6eaada4ad7e2353e893e750dd3a08022c05bba03c1d00c12f27176ebb0",
		"4x4/serial=false/PathBased/UniformRandom":            "a59b4a36ed87a66603bf63271b18385427c2f683689eaa98dd6287f0be39437f",
		"4x4/serial=false/PathBased/Multicast10":              "af3ac60a6a937523f30bfa89c9c7bdfaaa28e7027cd7a6e478352ce02cfe736b",
		"4x4/serial=false/DPM/UniformRandom":                  "a59b4a36ed87a66603bf63271b18385427c2f683689eaa98dd6287f0be39437f",
		"4x4/serial=false/DPM/Multicast10":                    "99f0da1f400c052e93f84772932da757c600af89e24381170f49b09fbae76bef",
		"4x4/serial=true//UniformRandom":                      "bc40faee0a93735b03207309f0d0feb8afa330abc025810b51db24ddd6b5e6a9",
		"4x4/serial=true//Multicast10":                        "3507b286d1d0b2cf8f398f563e0155ce4826cb6ad3d2f4de4d0228a81b7a75c7",
		"4x4/serial=true/SerialUnicast/UniformRandom":         "bc40faee0a93735b03207309f0d0feb8afa330abc025810b51db24ddd6b5e6a9",
		"4x4/serial=true/SerialUnicast/Multicast10":           "3507b286d1d0b2cf8f398f563e0155ce4826cb6ad3d2f4de4d0228a81b7a75c7",
		"4x4/serial=true/TreeMulticast/UniformRandom":         "bc40faee0a93735b03207309f0d0feb8afa330abc025810b51db24ddd6b5e6a9",
		"4x4/serial=true/TreeMulticast/Multicast10":           "7c840765340c7dadaca1e39e8a7db22055815ff4bb679116f55d00f40a2bd66b",
		"4x4/serial=true/SpeculativeMulticast/UniformRandom":  "bc40faee0a93735b03207309f0d0feb8afa330abc025810b51db24ddd6b5e6a9",
		"4x4/serial=true/SpeculativeMulticast/Multicast10":    "7c840765340c7dadaca1e39e8a7db22055815ff4bb679116f55d00f40a2bd66b",
		"4x4/serial=true/PathBased/UniformRandom":             "bc40faee0a93735b03207309f0d0feb8afa330abc025810b51db24ddd6b5e6a9",
		"4x4/serial=true/PathBased/Multicast10":               "031231c6ba7a0755d194a77e439ac3a5d3fbda052fed61476e96755055fe41a4",
		"4x4/serial=true/DPM/UniformRandom":                   "bc40faee0a93735b03207309f0d0feb8afa330abc025810b51db24ddd6b5e6a9",
		"4x4/serial=true/DPM/Multicast10":                     "7c840765340c7dadaca1e39e8a7db22055815ff4bb679116f55d00f40a2bd66b",
		"3x5/serial=false//UniformRandom":                     "a2c7da1db8e74022817478a57f43c2cfe9a6d7e54f613cb71c41524fe1fee75a",
		"3x5/serial=false//Multicast10":                       "6748b460636f5f4ddc4bd588aff271dbec8699a2c0d97633466f4c8aaada4054",
		"3x5/serial=false/SerialUnicast/UniformRandom":        "a2c7da1db8e74022817478a57f43c2cfe9a6d7e54f613cb71c41524fe1fee75a",
		"3x5/serial=false/SerialUnicast/Multicast10":          "dc95013737171db1f09041931b4c9e48f42defe912b6dba150bf30ed56e2a9a2",
		"3x5/serial=false/TreeMulticast/UniformRandom":        "a2c7da1db8e74022817478a57f43c2cfe9a6d7e54f613cb71c41524fe1fee75a",
		"3x5/serial=false/TreeMulticast/Multicast10":          "6748b460636f5f4ddc4bd588aff271dbec8699a2c0d97633466f4c8aaada4054",
		"3x5/serial=false/SpeculativeMulticast/UniformRandom": "a2c7da1db8e74022817478a57f43c2cfe9a6d7e54f613cb71c41524fe1fee75a",
		"3x5/serial=false/SpeculativeMulticast/Multicast10":   "6748b460636f5f4ddc4bd588aff271dbec8699a2c0d97633466f4c8aaada4054",
		"3x5/serial=false/PathBased/UniformRandom":            "a2c7da1db8e74022817478a57f43c2cfe9a6d7e54f613cb71c41524fe1fee75a",
		"3x5/serial=false/PathBased/Multicast10":              "785c2def3fc4827b123e9b9c9636eacb1ebc6d325812d1f5d39c7ff8c102c34d",
		"3x5/serial=false/DPM/UniformRandom":                  "a2c7da1db8e74022817478a57f43c2cfe9a6d7e54f613cb71c41524fe1fee75a",
		"3x5/serial=false/DPM/Multicast10":                    "621c6f04b06cf2af1068d25b9723ccff9353c9a8450952e925aacc09a46bc738",
		"3x5/serial=true//UniformRandom":                      "949ad058f7cd628ace75a2d908a77e885169a0d70e825775728b52e4802990eb",
		"3x5/serial=true//Multicast10":                        "e57ea4c01e36fa29dcddc421eb042a5b47d4a791d4dd87ed2043ed479d4cb0e2",
		"3x5/serial=true/SerialUnicast/UniformRandom":         "949ad058f7cd628ace75a2d908a77e885169a0d70e825775728b52e4802990eb",
		"3x5/serial=true/SerialUnicast/Multicast10":           "e57ea4c01e36fa29dcddc421eb042a5b47d4a791d4dd87ed2043ed479d4cb0e2",
		"3x5/serial=true/TreeMulticast/UniformRandom":         "949ad058f7cd628ace75a2d908a77e885169a0d70e825775728b52e4802990eb",
		"3x5/serial=true/TreeMulticast/Multicast10":           "ea9c50b0490efd4396b47fa8fe020ff5b3e0de8c4417d6aeafa02d4e5da6f8d0",
		"3x5/serial=true/SpeculativeMulticast/UniformRandom":  "949ad058f7cd628ace75a2d908a77e885169a0d70e825775728b52e4802990eb",
		"3x5/serial=true/SpeculativeMulticast/Multicast10":    "ea9c50b0490efd4396b47fa8fe020ff5b3e0de8c4417d6aeafa02d4e5da6f8d0",
		"3x5/serial=true/PathBased/UniformRandom":             "949ad058f7cd628ace75a2d908a77e885169a0d70e825775728b52e4802990eb",
		"3x5/serial=true/PathBased/Multicast10":               "71a58514724611e81d78f924d155d75c724da2f1ab401c7c34138592fc254c54",
		"3x5/serial=true/DPM/UniformRandom":                   "949ad058f7cd628ace75a2d908a77e885169a0d70e825775728b52e4802990eb",
		"3x5/serial=true/DPM/Multicast10":                     "ea9c50b0490efd4396b47fa8fe020ff5b3e0de8c4417d6aeafa02d4e5da6f8d0",
	}
	for _, shape := range [][2]int{{4, 4}, {3, 5}} {
		w, h := shape[0], shape[1]
		tiles := w * h
		for _, serial := range []bool{false, true} {
			for _, strat := range append([]string{""}, routing.StrategyNames()...) {
				for _, bench := range []traffic.Benchmark{traffic.UniformRandom{N: tiles}, traffic.Multicast{N: tiles, Frac: 0.10}} {
					spec := network.Spec{Name: "Mesh", N: tiles, PacketLen: 5, Serial: serial, Strategy: strat,
						Mesh: &mesh.Size{W: w, H: h}}
					name := fmt.Sprintf("%dx%d/serial=%v/%s/%s", w, h, serial, strat, bench.Name())
					res, err := run(spec, core.RunConfig{
						Bench: bench, LoadGFs: 0.25, Seed: 11,
						Warmup: 100 * sim.Nanosecond, Measure: 500 * sim.Nanosecond, Drain: 400 * sim.Nanosecond,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Completion != 1 {
						t.Errorf("%s: completion %v", name, res.Completion)
					}
					js, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(js)
					got := hex.EncodeToString(sum[:])
					if w, ok := want[name]; !ok {
						t.Errorf("no digest recorded for %s:\n\t%q: %q,", name, name, got)
					} else if got != w {
						t.Errorf("%s: result digest %s, want %s", name, got, w)
					}
				}
			}
		}
	}
}
