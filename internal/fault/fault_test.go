package fault

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// drain fires site n times and returns the outcome sequence: "p" for a
// panic, "e" for an injected error, "c" for a cancellation, "." for a
// clean pass.
func drain(in *Injector, site string, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		func() {
			defer func() {
				if recover() != nil {
					b.WriteByte('p')
				}
			}()
			switch err := in.Fire(site); {
			case err == nil:
				b.WriteByte('.')
			case errors.Is(err, context.Canceled):
				b.WriteByte('c')
			case errors.Is(err, ErrInjected):
				b.WriteByte('e')
			default:
				b.WriteByte('?')
			}
		}()
	}
	return b.String()
}

func TestFaultInjectorDeterministic(t *testing.T) {
	cfg := SiteConfig{Panic: 0.1, Error: 0.2, Cancel: 0.1}
	mk := func(seed int64) *Injector {
		in := NewInjector(seed)
		in.Configure(SiteEvalStep, cfg)
		in.Configure(SiteLeafPrepare, cfg)
		return in
	}
	a, b := mk(42), mk(42)
	if sa, sb := drain(a, SiteEvalStep, 500), drain(b, SiteEvalStep, 500); sa != sb {
		t.Fatalf("same seed diverged:\n%s\n%s", sa, sb)
	}
	if sa, sb := drain(a, SiteLeafPrepare, 500), drain(b, SiteLeafPrepare, 500); sa != sb {
		t.Fatalf("same seed diverged across sites:\n%s\n%s", sa, sb)
	}
	if s1, s2 := drain(mk(1), SiteEvalStep, 500), drain(mk(2), SiteEvalStep, 500); s1 == s2 {
		t.Fatalf("different seeds produced identical 500-firing sequences")
	}
	st := a.Stats()[SiteEvalStep]
	if st.Fired != 500 {
		t.Fatalf("fired = %d, want 500", st.Fired)
	}
	if st.Panics+st.Errors+st.Cancels == 0 {
		t.Fatalf("no faults out of 500 firings at 40%% total rate: %+v", st)
	}
	// Rates should land near the configured probabilities; a wide
	// tolerance keeps this deterministic check meaningful without
	// becoming a statistics test.
	if st.Panics < 20 || st.Panics > 90 {
		t.Errorf("panics = %d out of 500 at p=0.1", st.Panics)
	}
	if st.Errors < 55 || st.Errors > 145 {
		t.Errorf("errors = %d out of 500 at p=0.2", st.Errors)
	}
}

func TestFaultInjectorNilSafe(t *testing.T) {
	var in *Injector
	if err := in.Fire(SiteEvalStep); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	in.FirePanic(SiteLeafPrepare) // must not panic
	in.Configure(SiteEvalStep, SiteConfig{Error: 1})
	if in.Stats() != nil {
		t.Fatal("nil injector has stats")
	}
	// Constructed but unconfigured: inert, including for unknown sites.
	live := NewInjector(7)
	if err := live.Fire("nowhere"); err != nil {
		t.Fatalf("unconfigured site fired: %v", err)
	}
	live.Configure(SiteEvalStep, SiteConfig{Error: 1})
	if err := live.Fire("still.nowhere"); err != nil {
		t.Fatalf("unconfigured site fired on armed injector: %v", err)
	}
}

func TestFaultFirePanicConvertsErrors(t *testing.T) {
	in := NewInjector(3)
	in.Configure(SiteCacheLookup, SiteConfig{Error: 0.5, Cancel: 0.5})
	panics := 0
	for i := 0; i < 50; i++ {
		func() {
			defer func() {
				if recover() != nil {
					panics++
				}
			}()
			in.FirePanic(SiteCacheLookup)
		}()
	}
	if panics != 50 {
		t.Fatalf("FirePanic let %d of 50 certain faults through as non-panics", 50-panics)
	}
}

func TestFaultInjectorLatency(t *testing.T) {
	in := NewInjector(9)
	in.Configure(SiteSSEFlush, SiteConfig{Latency: 1, LatencyDur: 2 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := in.Fire(SiteSSEFlush); err != nil {
			t.Fatalf("latency-only site returned error: %v", err)
		}
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("5 certain 2ms delays took %v", d)
	}
	if st := in.Stats()[SiteSSEFlush]; st.Delays != 5 {
		t.Fatalf("delays = %d, want 5", st.Delays)
	}
}

func TestFaultInjectorConcurrent(t *testing.T) {
	in := NewInjector(11)
	in.Configure(SiteEvalStep, SiteConfig{Error: 0.3})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in.Fire(SiteEvalStep)
			}
		}()
	}
	wg.Wait()
	st := in.Stats()[SiteEvalStep]
	if st.Fired != 1600 {
		t.Fatalf("fired = %d, want 1600", st.Fired)
	}
	// The outcome multiset is a pure function of the firing index, so
	// the concurrent error count must equal a sequential replay's.
	seq := NewInjector(11)
	seq.Configure(SiteEvalStep, SiteConfig{Error: 0.3})
	for i := 0; i < 1600; i++ {
		seq.Fire(SiteEvalStep)
	}
	if want := seq.Stats()[SiteEvalStep].Errors; st.Errors != want {
		t.Fatalf("concurrent errors = %d, sequential replay = %d", st.Errors, want)
	}
}

func TestFaultPanicErrorPromote(t *testing.T) {
	sentinel := errors.New("boom")
	pe, first := Promote(sentinel, "workpool")
	if !first {
		t.Fatal("fresh panic value not reported as first capture")
	}
	if !errors.Is(pe, sentinel) {
		t.Fatal("PanicError does not unwrap to the panicked error")
	}
	if len(pe.Stack) == 0 || pe.Site != "workpool" {
		t.Fatalf("stack/site not captured: %d bytes, %q", len(pe.Stack), pe.Site)
	}
	again, first2 := Promote(pe, "rank.grant")
	if first2 || again != pe {
		t.Fatal("re-promotion of a PanicError must reuse it and report non-first")
	}
	pe.QueryID = "q17"
	if msg := pe.Error(); !strings.Contains(msg, "q17") || !strings.Contains(msg, "boom") {
		t.Fatalf("Error() = %q", msg)
	}
	str, _ := Promote("plain string", "x")
	if str.Unwrap() != nil {
		t.Fatal("non-error panic value must unwrap to nil")
	}
}
