package repro_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro"
	"repro/internal/workpool"
)

// TestFacadeWithShards drives the sharded lineage pipeline through the
// public surface: a WithShards session must return exactly the answers
// of an unsharded one — values, order, and confidences — and the
// routing explanation must record the fan-out.
func TestFacadeWithShards(t *testing.T) {
	s, rel := facadeWorkload(24)
	db := repro.NewDB(s, rel)
	ctx := context.Background()

	ref, err := db.Session(repro.WithShards(1)).Query("answers").GroupLineage(0).All(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3, 8} {
		sess := db.Session(repro.WithShards(n))
		q := sess.Query("answers").GroupLineage(0)
		why, err := q.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(why, "shards=") {
			t.Fatalf("EXPLAIN does not record the shard choice: %q", why)
		}
		got, err := sess.Query("answers").GroupLineage(0).All(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("shards=%d: %d answers, unsharded %d", n, len(got), len(ref))
		}
		for i := range got {
			if len(got[i].Vals) != len(ref[i].Vals) || got[i].Vals[0] != ref[i].Vals[0] {
				t.Fatalf("shards=%d: answer %d values %v, unsharded %v", n, i, got[i].Vals, ref[i].Vals)
			}
			if math.Abs(got[i].P-ref[i].P) > 1e-12 {
				t.Fatalf("shards=%d: answer %v confidence %v, unsharded %v", n, got[i].Vals, got[i].P, ref[i].P)
			}
		}
	}
}

// TestDBPartitionPoolIsolation pins per-DB pools: sizing one DB's pool
// must leave other DBs and the process-wide default pool untouched.
func TestDBPartitionPoolIsolation(t *testing.T) {
	a := smallDB(t)
	b := smallDB(t)
	was := b.Parallelism()
	def := workpool.Default.Parallelism()

	a.Pool().Resize(1)
	if got := a.Parallelism(); got != 1 {
		t.Fatalf("a.Parallelism() = %d after Pool().Resize(1)", got)
	}
	if got := b.Parallelism(); got != was {
		t.Fatalf("resizing DB a changed DB b's pool: %d, want %d", got, was)
	}
	if got := workpool.Default.Parallelism(); got != def {
		t.Fatalf("resizing DB a changed the default pool: %d, want %d", got, def)
	}

	a.Pool().Resize(3)
	if got := a.Parallelism(); got != 3 {
		t.Fatalf("Pool().Resize(3) then Parallelism() = %d", got)
	}
}
