package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"entangle/internal/fingerprint"
	"entangle/internal/vcache"
)

func testKey(i int) fingerprint.Hash {
	return fingerprint.Hash(sha256.Sum256([]byte(fmt.Sprintf("cluster-test-key-%d", i))))
}

func testMembers(n int) []Member {
	var ms []Member
	for i := 0; i < n; i++ {
		ms = append(ms, Member{ID: fmt.Sprintf("n%d", i), URL: fmt.Sprintf("http://node-%d", i)})
	}
	return ms
}

func TestParsePeers(t *testing.T) {
	ms, err := ParsePeers("a=http://h1:1, b=http://h2:2/,c=http://h3:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{{"a", "http://h1:1"}, {"b", "http://h2:2"}, {"c", "http://h3:3"}}
	if len(ms) != len(want) {
		t.Fatalf("got %d members, want %d", len(ms), len(want))
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Errorf("member %d = %+v, want %+v", i, ms[i], want[i])
		}
	}
	for _, bad := range []string{"", "a", "=http://x", "a=", "a=x,a"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q): expected error", bad)
		}
	}
}

func TestMembershipValidation(t *testing.T) {
	if _, err := NewMembership("a", nil); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := NewMembership("z", testMembers(3)); err == nil {
		t.Error("self outside member list accepted")
	}
	dup := []Member{{ID: "a"}, {ID: "a"}}
	if _, err := NewMembership("a", dup); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

// TestOwnerProperties pins the rendezvous function's load-bearing
// properties: exactly one owner per key, agreement regardless of
// member-list order, stability of unrelated keys when a member is
// removed, and a roughly balanced shard split.
func TestOwnerProperties(t *testing.T) {
	members := testMembers(5)
	const keys = 2000

	counts := map[string]int{}
	elected := sha256.New()
	for i := 0; i < keys; i++ {
		key := testKey(i)
		owner := Owner(members, key)
		counts[owner.ID]++
		elected.Write([]byte(owner.ID))

		// Agreement: any permutation elects the same owner.
		rev := append([]Member(nil), members...)
		for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
			rev[a], rev[b] = rev[b], rev[a]
		}
		if got := Owner(rev, key); got.ID != owner.ID {
			t.Fatalf("key %d: owner depends on member order: %s vs %s", i, owner.ID, got.ID)
		}

		// Minimal disruption: removing a non-owner member never moves
		// this key.
		for cut := range members {
			if members[cut].ID == owner.ID {
				continue
			}
			rest := append(append([]Member(nil), members[:cut]...), members[cut+1:]...)
			if got := Owner(rest, key); got.ID != owner.ID {
				t.Fatalf("key %d moved from %s to %s when non-owner %s left",
					i, owner.ID, got.ID, members[cut].ID)
			}
		}
	}
	for _, m := range members {
		n := counts[m.ID]
		if n < keys/len(members)/2 || n > keys*2/len(members) {
			t.Errorf("member %s owns %d of %d keys: badly unbalanced", m.ID, n, keys)
		}
	}
	// Ownership is a wire-level agreement between nodes of different
	// builds: the elected sequence is pinned to what PR 11's hash chose.
	if got := fmt.Sprintf("%x", elected.Sum(nil)); got != "20c60fd0dee3eaedf4c0a2daef4a3807688b27607122834188463f2a55702bf9" {
		t.Errorf("rendezvous owners moved: digest %s", got)
	}
}

func TestBackoffDeterministicCappedJittered(t *testing.T) {
	p := RetryPolicy{BackoffBase: 100 * time.Millisecond, BackoffCap: 1 * time.Second, JitterSeed: 7}.withDefaults()
	for attempt := 1; attempt <= 12; attempt++ {
		d1 := p.backoff("fetch/n1/abc", attempt)
		d2 := p.backoff("fetch/n1/abc", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d1, d2)
		}
		if d1 > p.BackoffCap {
			t.Fatalf("attempt %d: backoff %v exceeds cap %v", attempt, d1, p.BackoffCap)
		}
		uncapped := p.BackoffBase << (attempt - 1)
		limit := uncapped
		if limit > p.BackoffCap || limit <= 0 {
			limit = p.BackoffCap
		}
		if d1 < limit/2 {
			t.Fatalf("attempt %d: backoff %v below jitter floor %v", attempt, d1, limit/2)
		}
	}
	for i, want := range []time.Duration{78637036, 195072808, 221981271, 611435602, 617876928} {
		if got := p.backoff("fetch/n1/abc", i+1); got != want {
			t.Errorf("attempt %d: jitter moved: %d, pinned %d", i+1, got, want)
		}
	}
	if p.backoff("fetch/n1/abc#1", 1) == p.backoff("fetch/n2/abc#1", 1) {
		t.Error("distinct labels produced identical jitter (suspicious)")
	}
}

// fakeClock advances instantly: Sleep never blocks, Now moves only
// when the test says so.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestBreakerLifecycle(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	b := newBreaker(BreakerConfig{FailThreshold: 3, Cooldown: time.Minute}, clock)

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("failure %d: breaker opened early", i)
		}
		b.Failure()
	}
	if b.Allow() {
		t.Fatal("breaker still closed after threshold failures")
	}
	clock.advance(30 * time.Second)
	if b.Allow() {
		t.Fatal("breaker admitted traffic mid-cooldown")
	}
	clock.advance(31 * time.Second)
	if !b.Allow() {
		t.Fatal("no half-open probe after cooldown")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	if reopened := b.Failure(); !reopened {
		t.Fatal("failed probe did not report reopening")
	}
	if b.Allow() {
		t.Fatal("breaker closed after failed probe")
	}
	clock.advance(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.Success()
	if !b.Allow() || !b.Allow() {
		t.Fatal("breaker not fully closed after successful probe")
	}
}

// scriptTransport fails a configurable number of times per call site
// before succeeding, and records attempts.
type scriptTransport struct {
	mu        sync.Mutex
	failFirst int
	attempts  int
	entry     []byte
	notFound  bool
}

func (s *scriptTransport) Fetch(ctx context.Context, peer Member, key fingerprint.Hash) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts++
	if s.attempts <= s.failFirst {
		return nil, errors.New("connection refused")
	}
	if s.notFound {
		return nil, ErrNotFound
	}
	return s.entry, nil
}

func (s *scriptTransport) Offer(ctx context.Context, peer Member, key fingerprint.Hash, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts++
	if s.attempts <= s.failFirst {
		return errors.New("connection refused")
	}
	return nil
}

func newTestClient(tr Transport) *Client {
	return NewClient(ClientConfig{
		Transport: tr,
		Policy:    RetryPolicy{Attempts: 3, AttemptTimeout: time.Second, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond},
		Breaker:   BreakerConfig{FailThreshold: 3, Cooldown: time.Minute},
		Clock:     &fakeClock{now: time.Unix(0, 0)},
	})
}

func mustEntry(t *testing.T, key fingerprint.Hash) (*vcache.Entry, []byte) {
	t.Helper()
	e := &vcache.Entry{Verdict: vcache.VerdictRefined, Outputs: []vcache.Mapping{{Main: []string{"I0"}}}}
	data, err := vcache.EncodeEntry(key, e)
	if err != nil {
		t.Fatal(err)
	}
	return e, data
}

func TestClientRetriesThenSucceeds(t *testing.T) {
	key := testKey(1)
	_, data := mustEntry(t, key)
	tr := &scriptTransport{failFirst: 2, entry: data}
	c := newTestClient(tr)
	e, err := c.Fetch(context.Background(), Member{ID: "p"}, key)
	if err != nil || e == nil {
		t.Fatalf("fetch failed after retries: %v", err)
	}
	if tr.attempts != 3 {
		t.Fatalf("got %d attempts, want 3", tr.attempts)
	}
	st := c.Stats()
	if st.Retries != 2 || st.FetchHits != 1 {
		t.Fatalf("stats = %+v, want 2 retries / 1 hit", st)
	}
}

func TestClientBoundedRetriesAndBreaker(t *testing.T) {
	key := testKey(2)
	tr := &scriptTransport{failFirst: 1 << 30}
	c := newTestClient(tr)
	peer := Member{ID: "p"}
	for call := 0; call < 3; call++ {
		if _, err := c.Fetch(context.Background(), peer, key); err == nil {
			t.Fatal("fetch succeeded against always-failing transport")
		}
	}
	if tr.attempts != 9 {
		t.Fatalf("3 calls made %d attempts, want 9 (3 each)", tr.attempts)
	}
	// Threshold (3 failed exchanges) reached: breaker open, further
	// calls are skipped without touching the transport.
	if !c.BreakerOpen(peer) {
		t.Fatal("breaker not open after consecutive failures")
	}
	if _, err := c.Fetch(context.Background(), peer, key); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("expected breaker skip, got %v", err)
	}
	if tr.attempts != 9 {
		t.Fatalf("breaker-skipped call still reached the transport (%d attempts)", tr.attempts)
	}
	if st := c.Stats(); st.BreakerSkips != 1 {
		t.Fatalf("stats = %+v, want 1 breaker skip", st)
	}
}

func TestClientNotFoundIsNotRetriedOrCounted(t *testing.T) {
	tr := &scriptTransport{notFound: true}
	c := newTestClient(tr)
	if _, err := c.Fetch(context.Background(), Member{ID: "p"}, testKey(3)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if tr.attempts != 1 {
		t.Fatalf("authoritative miss was retried: %d attempts", tr.attempts)
	}
	if c.BreakerOpen(Member{ID: "p"}) {
		t.Fatal("miss counted against the breaker")
	}
	if st := c.Stats(); st.FetchMisses != 1 || st.FetchFailures != 0 {
		t.Fatalf("stats = %+v, want 1 miss, 0 failures", st)
	}
}

func TestClientRejectsCorruptReply(t *testing.T) {
	key := testKey(4)
	_, data := mustEntry(t, key)
	data[len(data)-1] ^= 1 // flip a payload bit: checksum must catch it
	tr := &scriptTransport{entry: data}
	c := newTestClient(tr)
	if _, err := c.Fetch(context.Background(), Member{ID: "p"}, key); err == nil {
		t.Fatal("corrupt reply accepted")
	}
	if st := c.Stats(); st.FetchCorrupt != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt fetch", st)
	}
}

// routerFixture builds a 3-node membership with an in-memory transport
// backed by per-peer vcaches, from node n0's point of view.
type routerFixture struct {
	cache  *Cache
	stores map[string]*vcache.Cache // peer ID → that peer's local store
	down   map[string]bool
	mu     sync.Mutex
}

func (f *routerFixture) Fetch(ctx context.Context, peer Member, key fingerprint.Hash) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[peer.ID] {
		return nil, errors.New("connection refused")
	}
	e := f.stores[peer.ID].Get(key)
	if e == nil {
		return nil, ErrNotFound
	}
	return vcache.EncodeEntry(key, e)
}

func (f *routerFixture) Offer(ctx context.Context, peer Member, key fingerprint.Hash, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[peer.ID] {
		return errors.New("connection refused")
	}
	e, err := vcache.DecodeEntry(key, data)
	if err != nil {
		return err
	}
	return f.stores[peer.ID].Put(key, e)
}

func newRouterFixture(t *testing.T) *routerFixture {
	t.Helper()
	members := testMembers(3)
	f := &routerFixture{stores: map[string]*vcache.Cache{}, down: map[string]bool{}}
	for _, m := range members {
		vc, err := vcache.Open(vcache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		f.stores[m.ID] = vc
	}
	ms, err := NewMembership("n0", members)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(CacheConfig{
		Membership: ms,
		Local:      f.stores["n0"],
		Client: NewClient(ClientConfig{
			Transport: f,
			Policy:    RetryPolicy{Attempts: 2, AttemptTimeout: time.Second, BackoffBase: time.Millisecond},
			Clock:     &fakeClock{now: time.Unix(0, 0)},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.cache = cache
	return f
}

// keyOwnedBy scans for a key owned by the wanted member.
func keyOwnedBy(t *testing.T, ms *Membership, id string) fingerprint.Hash {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if key := testKey(i); ms.Owner(key).ID == id {
			return key
		}
	}
	t.Fatalf("no key owned by %s in 10000 tries", id)
	return fingerprint.Hash{}
}

func TestCacheRoutesPutToOwnerAndGetFromOwner(t *testing.T) {
	f := newRouterFixture(t)
	key := keyOwnedBy(t, f.cache.Membership(), "n1")
	e, _ := mustEntry(t, key)

	// Put on n0: lands locally AND at owner n1.
	if err := f.cache.Put(key, e); err != nil {
		t.Fatal(err)
	}
	if f.stores["n1"].Get(key) == nil {
		t.Fatal("verdict not forwarded to owner n1")
	}
	if f.stores["n0"].Get(key) == nil {
		t.Fatal("verdict not kept locally")
	}
	if st := f.cache.ClusterStats(); st.Forwards != 1 {
		t.Fatalf("stats = %+v, want 1 forward", st)
	}

	// A different node's verdict appears only at the owner; n0's Get
	// must fetch it and warm the local store.
	key2 := keyOwnedBy(t, f.cache.Membership(), "n2")
	e2, _ := mustEntry(t, key2)
	if err := f.stores["n2"].Put(key2, e2); err != nil {
		t.Fatal(err)
	}
	if got := f.cache.Get(key2); got == nil {
		t.Fatal("Get did not fetch from owner")
	}
	if f.stores["n0"].Get(key2) == nil {
		t.Fatal("fetched entry not warmed into the local store")
	}
	st := f.cache.ClusterStats()
	if st.PeerHits != 1 || st.Warmed != 1 {
		t.Fatalf("stats = %+v, want 1 peer hit + 1 warmed", st)
	}
	// Second Get is a pure local hit.
	if f.cache.Get(key2) == nil {
		t.Fatal("warmed entry missing")
	}
	if st := f.cache.ClusterStats(); st.LocalHits != 1 {
		t.Fatalf("stats = %+v, want 1 local hit", st)
	}
}

func TestCacheDegradesWhenOwnerDown(t *testing.T) {
	f := newRouterFixture(t)
	key := keyOwnedBy(t, f.cache.Membership(), "n1")
	f.mu.Lock()
	f.down["n1"] = true
	f.mu.Unlock()

	// Get degrades to a miss (the checker then computes locally).
	if got := f.cache.Get(key); got != nil {
		t.Fatal("Get returned an entry from a down owner")
	}
	if st := f.cache.ClusterStats(); st.Degraded != 1 {
		t.Fatalf("stats = %+v, want 1 degraded get", st)
	}

	// Put still lands locally; the forward failure is counted, not
	// fatal.
	e, _ := mustEntry(t, key)
	if err := f.cache.Put(key, e); err != nil {
		t.Fatal(err)
	}
	if f.stores["n0"].Get(key) == nil {
		t.Fatal("verdict lost when owner down")
	}
	if st := f.cache.ClusterStats(); st.ForwardFailures != 1 {
		t.Fatalf("stats = %+v, want 1 forward failure", st)
	}

	// Owner rejoins: the next Put re-warms it (lazy warm-up, no
	// transfer protocol).
	f.mu.Lock()
	f.down["n1"] = false
	f.mu.Unlock()
	if err := f.cache.Put(key, e); err != nil {
		t.Fatal(err)
	}
	if f.stores["n1"].Get(key) == nil {
		t.Fatal("rejoined owner not re-warmed by forward")
	}
}

func TestCacheClosedServesLocally(t *testing.T) {
	f := newRouterFixture(t)
	key := keyOwnedBy(t, f.cache.Membership(), "n1")
	e, _ := mustEntry(t, key)
	if err := f.stores["n1"].Put(key, e); err != nil {
		t.Fatal(err)
	}
	f.cache.Close()
	if got := f.cache.Get(key); got != nil {
		t.Fatal("closed cache still fetched from peer")
	}
	if err := f.cache.Put(key, e); err != nil {
		t.Fatal(err)
	}
	if f.stores["n0"].Get(key) == nil {
		t.Fatal("closed cache dropped local put")
	}
}
