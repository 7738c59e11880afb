package tfdata

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func pathList(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/data/f-%03d", i)
	}
	return out
}

func TestShardDisjointCover(t *testing.T) {
	paths := pathList(10)
	var union []string
	for rank := 0; rank < 4; rank++ {
		shard := FromFiles(nil, paths).Shard(4, rank).Paths()
		// Rank r gets elements r, r+4, r+8, ...
		for i, p := range shard {
			if want := paths[rank+4*i]; p != want {
				t.Fatalf("rank %d shard[%d] = %s, want %s", rank, i, p, want)
			}
		}
		if got := ShardLen(len(paths), 4, rank); got != len(shard) {
			t.Fatalf("ShardLen(10,4,%d) = %d, Shard kept %d", rank, got, len(shard))
		}
		union = append(union, shard...)
	}
	sort.Strings(union)
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	if !reflect.DeepEqual(union, sorted) {
		t.Fatalf("shards do not cover the dataset: %v", union)
	}
}

func TestShardSingleIsIdentity(t *testing.T) {
	paths := pathList(7)
	got := FromFiles(nil, paths).Shard(1, 0).Paths()
	if !reflect.DeepEqual(got, paths) {
		t.Fatalf("shard(1,0) changed the order: %v", got)
	}
}

func TestShardInvalidArgsPanic(t *testing.T) {
	for _, args := range [][2]int{{0, 0}, {4, -1}, {4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shard(%d,%d) did not panic", args[0], args[1])
				}
			}()
			FromFiles(nil, pathList(4)).Shard(args[0], args[1])
		}()
	}
}

func TestShuffleShardCompose(t *testing.T) {
	// The ops chain fluently and deterministically: two identical chains
	// yield identical orders.
	build := func() []string {
		return FromFiles(nil, pathList(24)).Shuffle(7).Shard(2, 1).Paths()
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("op chain is not deterministic")
	}
	if len(a) != 12 {
		t.Fatalf("chain length = %d, want 12 (half of 24 files)", len(a))
	}
}
