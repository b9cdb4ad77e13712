package main

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestBuildInjector(t *testing.T) {
	sites := []string{fault.SiteEvalStep, fault.SiteLeafPrepare, fault.SiteCacheLookup, fault.SiteSSEFlush}
	for _, tc := range []struct {
		name    string
		seed    int64
		spec    string
		wantErr string   // substring of the error; "" = success
		armed   []string // sites configured on success (nil = nil injector)
	}{
		{name: "off", seed: 0, spec: ""},
		{name: "spec without seed", seed: 0, spec: "eval.step:error=0.1", wantErr: "-chaos-seed"},
		{name: "default schedule", seed: 7, spec: "", armed: sites},
		{name: "one site", seed: 7, spec: "eval.step:error=0.5,cancel=0.5; sse.flush:latency=1,latency_ms=3",
			armed: []string{fault.SiteEvalStep, fault.SiteSSEFlush}},
		{name: "NaN", seed: 7, spec: "eval.step:panic=NaN", wantErr: "eval.step:panic=NaN"},
		{name: "above one", seed: 7, spec: "eval.step:panic=7", wantErr: "eval.step:panic=7"},
		{name: "negative", seed: 7, spec: "eval.step:panic=-0.1", wantErr: "eval.step:panic=-0.1"},
		{name: "exclusive sum above one", seed: 7, spec: "leaf.prepare:panic=0.6,error=0.6",
			wantErr: "leaf.prepare:panic=0.6,error=0.6"},
		{name: "deleted site", seed: 7, spec: "shard.merge:panic=0.1",
			wantErr: "bad site in \"shard.merge:panic=0.1\" (want one of eval.step, leaf.prepare, cache.lookup, sse.flush)"},
		{name: "unknown kind", seed: 7, spec: "eval.step:explode=0.1", wantErr: "unknown fault kind"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj, err := buildInjector(tc.seed, tc.spec)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (inj != nil) != (tc.armed != nil) {
				t.Fatalf("injector = %v, want armed = %v", inj, tc.armed != nil)
			}
			stats := inj.Stats()
			if len(stats) != len(tc.armed) {
				t.Fatalf("configured sites %v, want %v", stats, tc.armed)
			}
			for _, site := range tc.armed {
				if _, ok := stats[site]; !ok {
					t.Fatalf("configured sites %v, want %v", stats, tc.armed)
				}
			}
		})
	}
}
