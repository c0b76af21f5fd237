package grid

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// reopen closes a store and opens a fresh one on the same directory —
// the restart primitive of these tests. Callers that want the
// crash-equivalent skip the Close (there is no flush to miss: every Put
// is durable the moment it returns).
func reopen(t *testing.T, d *DiskStore, opts ...DiskOption) *DiskStore {
	t.Helper()
	d.Close()
	nd, err := OpenDiskStore(d.dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

func openDisk(t *testing.T, opts ...DiskOption) *DiskStore {
	t.Helper()
	d, err := OpenDiskStore(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestStorageContract pins the Storage semantics every implementation
// shares: first write wins, empty-hash no-op, one hit or miss per Get.
func TestStorageContract(t *testing.T) {
	for name, st := range map[string]Storage{
		"memory":  NewStore(),
		"disk":    openDisk(t),
		"sharded": NewShardedStore(NewStore(), "http://self:1"), // membership-less: local-only degradation
	} {
		t.Run(name, func(t *testing.T) {
			if _, ok := st.Get("h1"); ok {
				t.Fatal("empty store hit")
			}
			st.Put("h1", []byte("a"))
			st.Put("h1", []byte("b")) // first write wins
			if v, ok := st.Get("h1"); !ok || string(v) != "a" {
				t.Fatalf("got %q/%v, want first write", v, ok)
			}
			st.Put("", []byte("x"))
			entries, hits, misses := st.Stats()
			if entries != 1 || hits != 1 || misses != 1 {
				t.Errorf("stats = %d entries, %d hits, %d misses; want 1/1/1", entries, hits, misses)
			}
		})
	}
}

// TestDiskStoreRestart checks durability: a store reopened on the same
// directory serves the same bytes, without a graceful close in between.
func TestDiskStoreRestart(t *testing.T) {
	d := openDisk(t)
	payloads := map[string][]byte{}
	for i := 0; i < 8; i++ {
		p := []byte(fmt.Sprintf("result-%d", i))
		h := HashBytes(p)
		payloads[h] = p
		d.Put(h, p)
	}
	// Crash-equivalent: no Close before the second open (the old handle
	// only leaks an index fd into the test process, which is harmless).
	nd, err := OpenDiskStore(d.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if entries, _, _ := nd.Stats(); entries != len(payloads) {
		t.Fatalf("recovered %d entries, want %d", entries, len(payloads))
	}
	for h, want := range payloads {
		got, ok := nd.Get(h)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("hash %s: got %q/%v, want %q", h, got, ok, want)
		}
	}
}

// TestDiskStoreCorruptionQuarantine flips bytes in stored entries and
// checks recovery skips and quarantines them without touching the rest.
func TestDiskStoreCorruptionQuarantine(t *testing.T) {
	d := openDisk(t)
	good := []byte("good-result")
	bad := []byte("doomed-result")
	gh, bh := HashBytes(good), HashBytes(bad)
	d.Put(gh, good)
	d.Put(bh, bad)

	// Truncate the doomed entry mid-payload.
	path := filepath.Join(d.objectsDir(), objectName(bh))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	nd := reopen(t, d)
	if entries, _, _ := nd.Stats(); entries != 1 {
		t.Fatalf("recovered %d entries, want 1 (corrupt one skipped)", entries)
	}
	if _, ok := nd.Get(bh); ok {
		t.Fatal("corrupt entry served")
	}
	if v, ok := nd.Get(gh); !ok || !bytes.Equal(v, good) {
		t.Fatalf("good entry lost: %q/%v", v, ok)
	}
	q, err := os.ReadDir(nd.quarantineDir())
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine holds %d files (err %v), want 1", len(q), err)
	}
}

// TestDiskStoreGetReverifies corrupts an entry after recovery: the next
// Get must quarantine it and miss instead of serving torn bytes.
func TestDiskStoreGetReverifies(t *testing.T) {
	d := openDisk(t)
	p := []byte("soon-rotten")
	h := HashBytes(p)
	d.Put(h, p)
	path := filepath.Join(d.objectsDir(), objectName(h))
	if err := os.WriteFile(path, []byte("{bitrot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Get(h); ok {
		t.Fatalf("served corrupted payload %q", v)
	}
	if entries, _, misses := d.Stats(); entries != 0 || misses != 1 {
		t.Errorf("after rot: %d entries, %d misses; want 0 entries, 1 miss", entries, misses)
	}
}

// TestDiskStoreLRUCap checks the byte cap evicts least-recently-used
// entries and that a Get refreshes recency.
func TestDiskStoreLRUCap(t *testing.T) {
	// Each payload is 10 bytes; cap at 3 entries' worth.
	d := openDisk(t, WithMaxBytes(30))
	mk := func(i int) (string, []byte) {
		p := []byte(fmt.Sprintf("payload-%02d", i)) // 10 bytes
		return HashBytes(p), p
	}
	var hashes []string
	for i := 0; i < 3; i++ {
		h, p := mk(i)
		hashes = append(hashes, h)
		d.Put(h, p)
	}
	// Touch 0 so 1 becomes the LRU, then overflow.
	if _, ok := d.Get(hashes[0]); !ok {
		t.Fatal("entry 0 missing before overflow")
	}
	h3, p3 := mk(3)
	d.Put(h3, p3)

	if _, ok := d.Get(hashes[1]); ok {
		t.Error("LRU entry 1 survived the cap")
	}
	for _, h := range []string{hashes[0], hashes[2], h3} {
		if _, ok := d.Get(h); !ok {
			t.Errorf("entry %s evicted, want kept", h)
		}
	}
	if total, _, evicted := d.DiskStats(); total != 30 || evicted != 1 {
		t.Errorf("disk stats total=%d evicted=%d, want 30/1", total, evicted)
	}
	// The cap holds across a restart too (recovery replays recency from
	// the index, then re-applies the cap).
	nd := reopen(t, d, WithMaxBytes(30))
	if entries, _, _ := nd.Stats(); entries != 3 {
		t.Errorf("recovered %d entries, want 3", entries)
	}
}

// TestDiskStoreTempSweep checks that temp files stranded by a crash
// mid-write are removed on open instead of accumulating forever — and
// that the live index.log is not caught by the sweep.
func TestDiskStoreTempSweep(t *testing.T) {
	d := openDisk(t)
	p := []byte("kept")
	h := HashBytes(p)
	d.Put(h, p)
	for _, name := range []string{"entry-12345", "index-67890"} {
		if err := os.WriteFile(filepath.Join(d.dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	nd := reopen(t, d)
	for _, name := range []string{"entry-12345", "index-67890"} {
		if _, err := os.Stat(filepath.Join(nd.dir, name)); !os.IsNotExist(err) {
			t.Errorf("stranded temp file %s survived reopen", name)
		}
	}
	if v, ok := nd.Get(h); !ok || !bytes.Equal(v, p) {
		t.Fatalf("entry lost during temp sweep: %q/%v", v, ok)
	}
	if _, err := os.Stat(nd.indexPath()); err != nil {
		t.Errorf("index.log swept away: %v", err)
	}
}

// TestDiskStoreOrphanAdoption deletes the index entirely: every object
// file must still be recovered (the index is advisory ordering, not
// truth).
func TestDiskStoreOrphanAdoption(t *testing.T) {
	d := openDisk(t)
	p := []byte("index-less")
	h := HashBytes(p)
	d.Put(h, p)
	d.Close()
	if err := os.Remove(d.indexPath()); err != nil {
		t.Fatal(err)
	}
	nd, err := OpenDiskStore(d.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if v, ok := nd.Get(h); !ok || !bytes.Equal(v, p) {
		t.Fatalf("orphan not adopted: %q/%v", v, ok)
	}
}

// TestDiskStoreMisplacedEntry plants a valid-looking entry under the
// wrong object name: recovery must quarantine it rather than serve a
// payload under a hash its file name does not commit to.
func TestDiskStoreMisplacedEntry(t *testing.T) {
	d := openDisk(t)
	p := []byte("legit")
	h := HashBytes(p)
	d.Put(h, p)
	src := filepath.Join(d.objectsDir(), objectName(h))
	if err := os.Rename(src, filepath.Join(d.objectsDir(), "misplaced")); err != nil {
		t.Fatal(err)
	}
	nd := reopen(t, d)
	if entries, _, _ := nd.Stats(); entries != 0 {
		t.Fatalf("misplaced entry adopted (%d entries)", entries)
	}
}

// TestDiskStoreSharedDirCompactor pins the shared-directory discipline
// two federated servers pointing -store-dir at the same path rely on:
// exactly one store wins the compactor flock, and a non-compactor's
// eviction re-stats the object file before unlinking — so it never
// deletes a result its sibling re-wrote after the non-compactor last
// recorded it (the lost-write regression of the single-owner era).
func TestDiskStoreSharedDirCompactor(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDiskStore(dir, WithMaxBytes(32))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	p1 := []byte("0123456789abcdef") // 16 bytes
	h1 := HashBytes(p1)
	a.Put(h1, p1)

	b, err := OpenDiskStore(dir, WithMaxBytes(32))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !a.compactor || b.compactor {
		t.Fatalf("compactor election broken: a=%v b=%v, want exactly the first opener", a.compactor, b.compactor)
	}
	if entries, _, _ := b.Stats(); entries != 1 {
		t.Fatalf("second opener recovered %d entries, want 1", entries)
	}

	// a cycles h1 out (its own cap) and re-puts it: the file on disk is
	// now NEWER than b's recorded mtime for h1.
	big := bytes.Repeat([]byte("B"), 30)
	a.Put(HashBytes(big), big) // 16+30 > 32: a evicts h1
	if _, ok := a.Get(h1); ok {
		t.Fatal("h1 survived a's cap")
	}
	time.Sleep(20 * time.Millisecond) // ensure a distinguishable mtime
	a.Put(h1, p1)                     // re-banked; a evicts big instead

	// b overflows too and picks its stale LRU victim: h1. The re-stat
	// must see a's fresh rewrite and refuse the unlink.
	other := bytes.Repeat([]byte("C"), 30)
	b.Put(HashBytes(other), other)
	if _, err := os.Stat(filepath.Join(a.objectsDir(), objectName(h1))); err != nil {
		t.Fatalf("sibling's re-written result deleted from disk: %v", err)
	}
	if v, ok := a.Get(h1); !ok || !bytes.Equal(v, p1) {
		t.Fatalf("a lost its just-banked result to b's eviction: %q/%v", v, ok)
	}
	if _, _, evicted := b.DiskStats(); evicted != 0 {
		t.Errorf("b counted %d evictions for a skipped unlink, want 0", evicted)
	}

	// Releasing the flock hands the compactor role to the next opener.
	a.Close()
	c, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.compactor {
		t.Error("compactor role not released with the flock")
	}
}

// FuzzStoreRecover throws arbitrary bytes at the on-disk layout — the
// index and an object file — and requires recovery to (a) never panic
// or error, (b) never serve a payload that fails checksum verification
// against its own header, and (c) stay writable afterwards, durably.
func FuzzStoreRecover(f *testing.F) {
	goodPayload := []byte(`{"ipc":1.5}`)
	goodHash := HashBytes(goodPayload)
	goodEntry := func() []byte {
		hdr := fmt.Sprintf(`{"hash":%q,"sum":%q,"len":%d}`, goodHash, HashBytes(goodPayload), len(goodPayload))
		return append([]byte(hdr+"\n"), goodPayload...)
	}()
	goodIndex := []byte(fmt.Sprintf(`{"hash":%q,"size":%d}`, goodHash, len(goodPayload)) + "\n")

	f.Add(goodIndex, goodEntry)
	f.Add([]byte{}, []byte{})
	f.Add([]byte("not json at all\n{}\n"), goodEntry[:len(goodEntry)-3]) // truncated payload
	f.Add(goodIndex, []byte("{\"hash\":\"sha256:00\",\"sum\":\"sha256:00\",\"len\":2}\nxx"))
	f.Add(bytes.Repeat([]byte("A"), 4096), bytes.Repeat([]byte{0}, 512))

	f.Fuzz(func(t *testing.T, index, entry []byte) {
		dir := t.TempDir()
		objects := filepath.Join(dir, "objects")
		if err := os.MkdirAll(objects, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "index.log"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		// Plant the fuzzed entry both under the name the good hash maps
		// to (so index lines naming it can bite) and under a random name.
		for _, name := range []string{objectName(goodHash), "stray"} {
			if err := os.WriteFile(filepath.Join(objects, name), entry, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		d, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatalf("recovery failed on hostile bytes: %v", err)
		}
		defer d.Close()

		// Whatever survived must verify: re-read each served payload's
		// file and check it against its own recorded header.
		for _, h := range d.Hashes() {
			v, ok := d.Get(h)
			if !ok {
				continue // re-verification may quarantine; a miss is fine
			}
			hdr, payload, err := readEntryFile(filepath.Join(objects, objectName(h)))
			if err != nil {
				t.Fatalf("served hash %s has unreadable entry: %v", h, err)
			}
			if hdr.Hash != h || !bytes.Equal(payload, v) || HashBytes(v) != hdr.Sum {
				t.Fatalf("served payload fails verification: hash %s", h)
			}
		}

		// The store must remain writable and durable.
		p := []byte("post-recovery")
		h := HashBytes(p)
		d.Put(h, p)
		if v, ok := d.Get(h); !ok || !bytes.Equal(v, p) {
			t.Fatal("post-recovery Put/Get failed")
		}
		d.Close()
		nd, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
		defer nd.Close()
		if v, ok := nd.Get(h); !ok || !bytes.Equal(v, p) {
			t.Fatal("post-recovery Put not durable")
		}
	})
}
