package memo

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// textCodec serializes string values, the simplest useful BlobCodec.
type textCodec struct{}

func (textCodec) Encode(v any) ([]byte, bool) {
	s, ok := v.(string)
	if !ok {
		return nil, false
	}
	data, err := json.Marshal(s)
	if err != nil {
		return nil, false
	}
	return data, true
}

func (textCodec) Decode(data []byte) (any, bool) {
	var s string
	if json.Unmarshal(data, &s) != nil {
		return nil, false
	}
	return s, true
}

func blobKey(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }

// waitFor polls cond until it holds or the test deadline nears.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreMemoryTier covers the basic miss-then-hit protocol and the
// memory-only (nil codec) mode.
func TestStoreMemoryTier(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	compute := func(context.Context) (any, error) { calls++; return "value", nil }
	for i, wantSrc := range []Source{SourceComputed, SourceMemory} {
		v, src, err := s.Do(context.Background(), blobKey("k"), nil, compute)
		if err != nil || v.(string) != "value" || src != wantSrc {
			t.Fatalf("call %d: got (%v, %v, %v), want (value, %v, nil)", i, v, src, err, wantSrc)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 miss 1 hit", st)
	}
}

// TestStoreDiskTier persists through the envelope and reloads in a fresh
// store; a corrupt or wrong-salt file is a miss, never an error.
func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := blobKey("payload")
	if _, _, err := s1.Do(context.Background(), key, textCodec{}, func(context.Context) (any, error) {
		return "persisted", nil
	}); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, src, err := s2.Do(context.Background(), key, textCodec{}, func(context.Context) (any, error) {
		t.Fatal("compute ran despite a disk record")
		return nil, nil
	})
	if err != nil || v.(string) != "persisted" || src != SourceDisk {
		t.Fatalf("got (%v, %v, %v), want (persisted, disk, nil)", v, src, err)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Errorf("stats %+v, want 1 disk hit", st)
	}
}

// TestStoreRemoteTier fills from a remote peer and offers computed
// records back to it.
func TestStoreRemoteTier(t *testing.T) {
	remote := &fakeRemote{entries: map[string][]byte{}, stores: map[string][]byte{}}
	key := blobKey("r")
	env, _ := json.Marshal(blobRec{Salt: StoreSalt, Data: json.RawMessage(`"from-remote"`)})
	remote.entries[hex.EncodeToString(key[:])] = env

	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	s.SetRemote(remote, 0)
	v, src, err := s.Do(context.Background(), key, textCodec{}, func(context.Context) (any, error) {
		t.Fatal("compute ran despite a remote record")
		return nil, nil
	})
	if err != nil || v.(string) != "from-remote" || src != SourceRemote {
		t.Fatalf("got (%v, %v, %v), want (from-remote, remote, nil)", v, src, err)
	}

	// A computed record is offered to the remote tier.
	key2 := blobKey("r2")
	if _, _, err := s.Do(context.Background(), key2, textCodec{}, func(context.Context) (any, error) {
		return "local", nil
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		remote.mu.Lock()
		defer remote.mu.Unlock()
		return len(remote.stores) == 1
	})
}

// TestStoreErrorsNeverCached asserts a failed computation vacates the
// key: the next call recomputes instead of replaying the error.
func TestStoreErrorsNeverCached(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := blobKey("err")
	boom := errors.New("boom")
	if _, _, err := s.Do(context.Background(), key, textCodec{}, func(context.Context) (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	v, src, err := s.Do(context.Background(), key, textCodec{}, func(context.Context) (any, error) {
		return "recovered", nil
	})
	if err != nil || v.(string) != "recovered" || src != SourceComputed {
		t.Fatalf("got (%v, %v, %v), want (recovered, computed, nil)", v, src, err)
	}
}

// TestStoreSingleflight collapses concurrent lookups of one key onto one
// computation.
func TestStoreSingleflight(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			v, _, err := s.Do(context.Background(), blobKey("one"), nil, func(context.Context) (any, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-release
				return "shared", nil
			})
			if err != nil || v.(string) != "shared" {
				t.Errorf("got (%v, %v)", v, err)
			}
		}()
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return calls == 1 && s.Stats().DedupWaits == waiters-1
	})
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
}

// TestStoreExport serves the encoded envelope for fleet cache fills,
// from memory and from disk.
func TestStoreExport(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := blobKey("exp")
	hexKey := hex.EncodeToString(key[:])
	if _, ok := s.Export(hexKey); ok {
		t.Fatal("Export hit before any record exists")
	}
	if _, _, err := s.Do(context.Background(), key, textCodec{}, func(context.Context) (any, error) {
		return "served", nil
	}); err != nil {
		t.Fatal(err)
	}
	data, ok := s.Export(hexKey)
	if !ok {
		t.Fatal("Export missed a stored record")
	}
	var rec blobRec
	if err := json.Unmarshal(data, &rec); err != nil || rec.Salt != StoreSalt {
		t.Fatalf("exported envelope %s: err %v", data, err)
	}

	// A fresh store over the same dir serves the record from disk.
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	disk, ok := s2.Export(hexKey)
	if !ok || string(disk) != string(data) {
		t.Fatalf("disk export (%v, %q) differs from memory export %q", ok, disk, data)
	}
	if _, ok := s2.Export("zz"); ok {
		t.Error("Export accepted a malformed key")
	}
}

// countingCodec is textCodec with a count of Encode calls.
type countingCodec struct {
	textCodec
	encodes *atomic.Int64
}

func (c countingCodec) Encode(v any) ([]byte, bool) {
	c.encodes.Add(1)
	return c.textCodec.Encode(v)
}

// TestStoreEncodesLazily: a store with neither a directory nor a remote
// never encodes on a miss, yet Export still serves a valid envelope for
// the completed key by encoding it on demand.
func TestStoreEncodesLazily(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	codec := countingCodec{encodes: new(atomic.Int64)}
	key := blobKey("lazy")
	for i := 0; i < 2; i++ {
		if _, _, err := s.Do(context.Background(), key, codec, func(context.Context) (any, error) {
			return "kept in memory", nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := codec.encodes.Load(); n != 0 {
		t.Fatalf("memory-only store encoded %d times", n)
	}
	data, ok := s.Export(hex.EncodeToString(key[:]))
	if !ok {
		t.Fatal("Export missed a completed memory-only entry")
	}
	v, ok := decodeBlob(data, textCodec{})
	if !ok || v.(string) != "kept in memory" {
		t.Fatalf("exported envelope %s decodes to (%v, %v)", data, v, ok)
	}
	if n := codec.encodes.Load(); n != 1 {
		t.Errorf("Export encoded %d times, want 1", n)
	}
}

// TestStoreNilSafety: a nil store computes every time and never panics.
func TestStoreNilSafety(t *testing.T) {
	var s *Store
	v, src, err := s.Do(context.Background(), blobKey("n"), textCodec{}, func(context.Context) (any, error) {
		return "direct", nil
	})
	if err != nil || v.(string) != "direct" || src != SourceComputed {
		t.Fatalf("got (%v, %v, %v)", v, src, err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil store stats %+v", st)
	}
	if _, ok := s.Export("00"); ok {
		t.Error("nil store exported a record")
	}
}

// TestSourceString covers the Source labels used in logs and tests.
func TestSourceString(t *testing.T) {
	for src, want := range map[Source]string{
		SourceComputed: "computed",
		SourceMemory:   "memory",
		SourceDisk:     "disk",
		SourceRemote:   "remote",
		Source(99):     fmt.Sprintf("source(%d)", 99),
	} {
		if got := src.String(); got != want {
			t.Errorf("Source(%d).String() = %q, want %q", int(src), got, want)
		}
	}
}
