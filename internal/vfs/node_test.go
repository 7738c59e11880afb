package vfs

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// TestPerNodeColdOpen is the shared-warm-metadata regression test: two
// ranks on different nodes both pay the cold first-open metadata cost on a
// shared file — warming is client-side state, never global.
func TestPerNodeColdOpen(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	if _, err := fs.CreateFile("/data/shared.bin", 1000); err != nil {
		t.Fatal(err)
	}
	runSim(t, func(th *sim.Thread) {
		open := func(node int) { openClose(t, th, fs, node, "/data/shared.bin") }
		open(0)
		afterNode0 := hdd.Counters().MetaOps
		if afterNode0 == 0 {
			t.Fatal("node 0 first open charged no metadata I/O")
		}
		open(0)
		if got := hdd.Counters().MetaOps; got != afterNode0 {
			t.Fatalf("node 0 re-open charged metadata I/O (%d -> %d)", afterNode0, got)
		}
		open(1)
		afterNode1 := hdd.Counters().MetaOps
		if afterNode1 != 2*afterNode0 {
			t.Fatalf("node 1 first open charged %d metadata ops, want %d (its own cold cost)",
				afterNode1-afterNode0, afterNode0)
		}
		open(1)
		if got := hdd.Counters().MetaOps; got != afterNode1 {
			t.Fatalf("node 1 re-open charged metadata I/O (%d -> %d)", afterNode1, got)
		}
	})
}

// TestOpenAndFopenShareColdOpen: open(2) and fopen(3) resolve a path
// through one per-node cold-open path, so either entry point warms the
// file for the other on the same node and for no other node.
func TestOpenAndFopenShareColdOpen(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	for _, p := range []string{"/data/warm.bin", "/data/a.bin", "/data/b.bin"} {
		if _, err := fs.CreateFile(p, 100); err != nil {
			t.Fatal(err)
		}
	}
	runSim(t, func(th *sim.Thread) {
		metaOps := func(open func()) int64 {
			before := hdd.Counters().MetaOps
			open()
			return hdd.Counters().MetaOps - before
		}
		posix := func(node int, p string) func() {
			return func() { openClose(t, th, fs, node, p) }
		}
		stdio := func(node int, p string) func() {
			return func() {
				s := NewStdio(fs, node)
				st, err := s.Fopen(th, p, "r")
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Fclose(th, st); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Warm the directory on both nodes, so each cold file below costs
		// exactly its one inode trip.
		posix(1, "/data/warm.bin")()
		posix(2, "/data/warm.bin")()
		for _, c := range []struct {
			name        string
			first, then func(node int, p string) func()
			p           string
		}{
			{"open then fopen", posix, stdio, "/data/a.bin"},
			{"fopen then open", stdio, posix, "/data/b.bin"},
		} {
			if got := metaOps(c.first(1, c.p)); got != 1 {
				t.Fatalf("%s: cold first touch on node 1 = %d MDS trips, want 1", c.name, got)
			}
			if got := metaOps(c.then(1, c.p)); got != 0 {
				t.Fatalf("%s: warm second touch on node 1 = %d MDS trips, want 0", c.name, got)
			}
			if got := metaOps(c.then(2, c.p)); got != 1 {
				t.Fatalf("%s: cold touch on node 2 = %d MDS trips, want 1", c.name, got)
			}
		}
	})
}

// TestCreatTruncMatchesFopenW: open with O_CREAT|O_TRUNC and fopen "w"
// leave identical inodes, for a new file and for an existing one.
func TestCreatTruncMatchesFopenW(t *testing.T) {
	paths := []string{"/data/old.bin", "/data/new.bin"}
	build := func(create func(th *sim.Thread, fs *FS, p string)) []Inode {
		fs, _, _, _, _ := testFS()
		if _, err := fs.CreateFile(paths[0], 100); err != nil {
			t.Fatal(err)
		}
		runSim(t, func(th *sim.Thread) {
			for _, p := range paths {
				create(th, fs, p)
			}
		})
		out := make([]Inode, len(paths))
		for i, p := range paths {
			ino, _ := fs.Lookup(p)
			out[i] = *ino
			out[i].Mnt = nil // a different FS's mount; compared by path
		}
		return out
	}
	posix := build(func(th *sim.Thread, fs *FS, p string) {
		fd, err := fs.Open(th, 1, p, O_WRONLY|O_CREAT|O_TRUNC)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(th, fd); err != nil {
			t.Fatal(err)
		}
	})
	stdio := build(func(th *sim.Thread, fs *FS, p string) {
		s := NewStdio(fs, 1)
		st, err := s.Fopen(th, p, "w")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fclose(th, st); err != nil {
			t.Fatal(err)
		}
	})
	for i, p := range paths {
		if !reflect.DeepEqual(posix[i], stdio[i]) {
			t.Fatalf("%s: open O_CREAT|O_TRUNC inode %+v, fopen w inode %+v", p, posix[i], stdio[i])
		}
	}
	if posix[0].Size != 0 || !posix[1].warm.has(1) || posix[1].warm.has(0) {
		t.Fatalf("inodes not truncated/warmed as node 1: %+v", posix)
	}
}

// nodeCacheFixture is a two-node FS over one shared data device with a
// cache device per node.
func nodeCacheFixture(t *testing.T, capacity int64, peer bool) (*FS, *storage.HDD, [2]*NodeCache) {
	t.Helper()
	fs, _, _, hdd, _ := testFS()
	var caches [2]*NodeCache
	for n := 0; n < 2; n++ {
		dev := storage.NewFlash("cache", storage.DefaultOptaneParams())
		caches[n] = fs.EnableNodeCache(n, NodeCacheConfig{
			Capacity:    capacity,
			Device:      dev,
			PeerServing: peer,
		})
	}
	return fs, hdd, caches
}

func TestNodeCacheLocalAndPeerServing(t *testing.T) {
	fs, hdd, caches := nodeCacheFixture(t, 10<<20, true)
	if _, err := fs.CreateFile("/data/x.bin", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CreateFile("/data/warmup.bin", 1<<10); err != nil {
		t.Fatal(err)
	}
	readAll := func(th *sim.Thread, node int) {
		fd, err := fs.Open(th, node, "/data/x.bin", O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.PreadDiscard(th, fd, 1<<20, 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(th, fd); err != nil {
			t.Fatal(err)
		}
	}
	runSim(t, func(th *sim.Thread) {
		// Miss first: node 0's read falls through to the data device.
		readAll(th, 0)
		if s := caches[0].Stats(); s.PFSReads != 1 || s.LocalHits != 0 {
			t.Fatalf("cold read: stats = %+v, want one PFS read", s)
		}
		// Fetch into node 0's cache, then node 0 hits locally.
		if _, err := caches[0].Fetch(th, "/data/x.bin"); err != nil {
			t.Fatal("fetch refused:", err)
		}
		readAll(th, 0)
		if s := caches[0].Stats(); s.LocalHits != 1 {
			t.Fatalf("after fetch: stats = %+v, want one local hit", s)
		}
		// Warm node 1's directory cache first (peer serving replaces the
		// per-file inode RPC, not the once-per-directory lookup).
		openClose(t, th, fs, 1, "/data/warmup.bin")
		// Node 1 is cold on the file but peer serving resolves both the
		// metadata and the data from node 0's cache: the shared data device
		// sees no new traffic.
		dataOps := hdd.Counters()
		readAll(th, 1)
		if s := caches[1].Stats(); s.PeerHits != 1 || s.PeerMetaHits != 1 {
			t.Fatalf("peer read: stats = %+v, want one peer hit and one peer metadata hit", s)
		}
		if got := hdd.Counters(); got.ReadOps != dataOps.ReadOps || got.MetaOps != dataOps.MetaOps {
			t.Fatalf("peer-served read touched the data device: %+v -> %+v", dataOps, got)
		}
	})
}

// TestNodeCacheWriteInvalidates: writing a file drops every node's cached
// copy, so the next read goes back to the device.
func TestNodeCacheWriteInvalidates(t *testing.T) {
	fs, _, caches := nodeCacheFixture(t, 10<<20, false)
	if _, err := fs.CreateFile("/data/x.bin", 1<<10); err != nil {
		t.Fatal(err)
	}
	runSim(t, func(th *sim.Thread) {
		if _, err := caches[0].Fetch(th, "/data/x.bin"); err != nil {
			t.Fatal("fetch refused:", err)
		}
		fd, err := fs.Open(th, 0, "/data/x.bin", O_WRONLY)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Pwrite(th, fd, []byte("fresh"), 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(th, fd); err != nil {
			t.Fatal(err)
		}
		if caches[0].Contains("/data/x.bin") {
			t.Fatal("write did not invalidate the cached copy")
		}
	})
}

// TestBulkColdOpen: a batch of cold files is warmed with one metadata
// round trip per mount — and only for the charged node.
func TestBulkColdOpen(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = "/data/bulk" + string(rune('a'+i))
		if _, err := fs.CreateFile(paths[i], 100); err != nil {
			t.Fatal(err)
		}
	}
	runSim(t, func(th *sim.Thread) {
		before := hdd.Counters().MetaOps
		if got := fs.BulkColdOpen(th, 0, paths); got != len(paths) {
			t.Fatalf("BulkColdOpen warmed %d files, want %d", got, len(paths))
		}
		if got := hdd.Counters().MetaOps - before; got != 1 {
			t.Fatalf("bulk lookup charged %d metadata ops, want 1", got)
		}
		// Node 0 is now warm; a plain open charges nothing further.
		warm := hdd.Counters().MetaOps
		fd, err := fs.Open(th, 0, paths[0], O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		fs.Close(th, fd)
		if got := hdd.Counters().MetaOps; got != warm {
			t.Fatalf("open after bulk warm charged metadata I/O (%d -> %d)", warm, got)
		}
		// Node 1 was not part of the bulk lookup and still pays cold cost.
		openClose(t, th, fs, 1, paths[0])
		if got := hdd.Counters().MetaOps; got == warm {
			t.Fatal("node 1 open after node 0 bulk warm charged no metadata I/O")
		}
	})
}

// TestNodeCacheEvictionBound: inserting beyond capacity evicts consumed
// entries first and never exceeds the bound.
func TestNodeCacheEvictionBound(t *testing.T) {
	const fileSize = 1 << 20
	fs, _, caches := nodeCacheFixture(t, 4*fileSize, false)
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = "/data/ev" + string(rune('a'+i))
		if _, err := fs.CreateFile(paths[i], fileSize); err != nil {
			t.Fatal(err)
		}
	}
	c := caches[0]
	runSim(t, func(th *sim.Thread) {
		for _, p := range paths {
			if _, err := c.Fetch(th, p); err != nil {
				t.Fatalf("fetch %s refused: %v", p, err)
			}
			if c.Used() > c.Capacity() {
				t.Fatalf("cache exceeded capacity: %d > %d", c.Used(), c.Capacity())
			}
			// Consume so the entry is evictable.
			fd, err := fs.Open(th, 0, p, O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.PreadDiscard(th, fd, fileSize, 0); err != nil {
				t.Fatal(err)
			}
			fs.Close(th, fd)
		}
		s := c.Stats()
		if s.Evictions != 4 {
			t.Fatalf("evictions = %d, want 4", s.Evictions)
		}
		if s.LocalHits != int64(len(paths)) {
			t.Fatalf("local hits = %d, want %d", s.LocalHits, len(paths))
		}
		// The four most recent files are resident; the first four are gone.
		for i, p := range paths {
			want := i >= 4
			if got := c.Contains(p); got != want {
				t.Fatalf("Contains(%s) = %v, want %v", p, got, want)
			}
		}
	})
}

// TestNodeCacheRefusesOversizedFile: a file larger than the whole cache is
// refused rather than evicting everything.
func TestNodeCacheRefusesOversizedFile(t *testing.T) {
	fs, _, caches := nodeCacheFixture(t, 1<<20, false)
	if _, err := fs.CreateFile("/data/big.bin", 2<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CreateFile("/data/small.bin", 1<<10); err != nil {
		t.Fatal(err)
	}
	c := caches[0]
	runSim(t, func(th *sim.Thread) {
		if _, err := c.Fetch(th, "/data/small.bin"); err != nil {
			t.Fatal("small fetch refused:", err)
		}
		if _, err := c.Fetch(th, "/data/big.bin"); err != ErrNoSpace {
			t.Fatalf("oversized fetch: err = %v, want ErrNoSpace", err)
		}
		if !c.Contains("/data/small.bin") {
			t.Fatal("refused oversized fetch evicted resident entries")
		}
	})
}
