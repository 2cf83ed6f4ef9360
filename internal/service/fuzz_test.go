package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"
	"time"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/core"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
)

// referenceJobKey is the job key formula core.JobKey replaced (the same
// reference as core's TestJobKeyMatchesReference): the canonical key
// formatted into a string and the key text written into a streaming
// hash. Stores written before the change hold keys of this form.
func referenceJobKey(spec network.Spec, cfg core.RunConfig) string {
	s := spec
	var key string
	if s.Mesh != nil {
		key = fmt.Sprintf("mesh|%s|%dx%d|%d|%v|%s", s.Name, s.Mesh.W, s.Mesh.H, s.PacketLen, s.Serial, s.Strategy)
	} else {
		key = fmt.Sprintf("spec|%s|%d|%d|%d|%v|%d|%d|%v|%s|%d|%d|%+v",
			s.Name, s.N, s.PacketLen, s.Scheme, s.SpecLevels,
			s.SpecKind, s.NonSpecKind, s.Serial, s.Strategy, s.Protocol, s.SyncPeriod,
			s.Faults)
		if s.Chiplet != nil {
			key += fmt.Sprintf("|chiplet|%+v", *s.Chiplet)
		}
	}
	h := sha256.New()
	fmt.Fprint(h, key)
	fmt.Fprintf(h, "|cfg|%#v|%s|%d|%d|%d|%d|%d",
		cfg.Bench, strconv.FormatFloat(cfg.LoadGFs, 'x', -1, 64),
		cfg.Seed, cfg.Warmup, cfg.Measure, cfg.Drain, cfg.MaxEvents)
	return hex.EncodeToString(h.Sum(nil))
}

// FuzzRunRequest: a JSON request body that Config accepts must run to a
// result or an error — never a panic or a hang — and its job key must
// equal the reference formula's. The event budget and a short deadline
// bound each run, as the server's timeout would.
func FuzzRunRequest(f *testing.F) {
	base := func(spec string, n int) RunRequest {
		s, err := core.SpecByName(n, spec)
		if err != nil {
			f.Fatal(err)
		}
		return RunRequest{Spec: s, Bench: "Multicast10", LoadGFs: 0.3, Seed: 2016,
			WarmupPs: int64(40 * sim.Nanosecond), MeasurePs: int64(160 * sim.Nanosecond),
			DrainPs: int64(200 * sim.Nanosecond)}
	}
	faulty := base(core.NameBasicHybridSpec, 8)
	faulty.Spec.Faults = fault.Config{Seed: 7, CorruptRate: 1e-3, DropRate: 1e-3}
	composed := base(core.NameOptHybridSpec, 4)
	composed.Spec = core.WithChiplet(composed.Spec, chiplet.Default(2, 2))
	meshReq := base(core.NameOptHybridSpec, 8)
	meshReq.Spec = core.MeshTree(4, 4)
	// Invalid mesh seeds: 65 tiles, and a fault layer on a mesh.
	tooBig, faultyMesh := meshReq, meshReq
	tooBig.Spec = core.MeshSerial(13, 5)
	faultyMesh.Spec.Faults = faulty.Spec.Faults
	for _, seed := range []struct {
		req   RunRequest
		valid bool
	}{
		{base(core.NameOptHybridSpec, 8), true}, {faulty, true}, {composed, true}, {meshReq, true},
		{tooBig, false}, {faultyMesh, false},
	} {
		req := seed.req
		_, err := req.Config()
		if err == nil {
			err = req.Spec.Validate()
		}
		if (err == nil) != seed.valid {
			f.Fatalf("seed %s: valid %v, but Config and Validate return %v", req.Spec.Name, seed.valid, err)
		}
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req RunRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		cfg, err := req.Config()
		if err != nil {
			return
		}
		if got, want := core.JobKey(req.Spec, cfg), referenceJobKey(req.Spec, cfg); got != want {
			t.Fatalf("job key %s, want the reference formula's %s", got, want)
		}
		if cfg.MaxEvents == 0 || cfg.MaxEvents > 50_000 {
			cfg.MaxEvents = 50_000
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _ = core.RunContext(ctx, req.Spec, cfg)
	})
}
