package main

// The system under test: one or three entangled nodes, either the
// shipped cmd/entangled binary as subprocesses (end-to-end runs) or
// the same wiring in-process (traced runs and tests).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"entangle/internal/cluster"
	"entangle/internal/core"
	"entangle/internal/server"
	"entangle/internal/vcache"
)

// node is one daemon. Subprocess nodes have cmd set; in-process nodes
// have srv set.
type node struct {
	id  string
	url string

	cmd    *exec.Cmd
	stderr *bytes.Buffer

	srv     *server.Server
	httpSrv *http.Server
	fleet   *cluster.Cache
}

// target is the set of nodes one run drives.
type target struct {
	nodes []*node
}

// cacheDirs returns one verdict-cache directory per node, new under
// parent, or n empty names — the daemon's default, a cache in memory
// only — when parent is empty.
func cacheDirs(parent string, n int) ([]string, error) {
	dirs := make([]string, n)
	if parent == "" {
		return dirs, nil
	}
	run, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	for i := range dirs {
		dirs[i] = filepath.Join(run, fmt.Sprintf("cache%d", i))
	}
	return dirs, nil
}

// freeAddrs reserves n distinct loopback addresses. The listeners are
// closed before the daemons bind, which is as close to atomic as a
// separate process allows.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func peerSpec(addrs []string) string {
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = fmt.Sprintf("n%d=http://%s", i, a)
	}
	return strings.Join(parts, ",")
}

// startDaemons launches n entangled subprocesses with their default
// flags — only -addr and, where they apply, -cache and -self/-peers are
// passed — and waits until each answers /v1/healthz. The verdict caches
// live in new directories under cacheParent, or in memory only when it
// is empty. Cancelling ctx kills the daemons.
func startDaemons(ctx context.Context, bin string, n int, cacheParent string) (*target, error) {
	dirs, err := cacheDirs(cacheParent, n)
	if err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	t := &target{}
	for i, addr := range addrs {
		args := []string{"-addr", addr}
		if dirs[i] != "" {
			args = append(args, "-cache", dirs[i])
		}
		if n > 1 {
			args = append(args, "-self", fmt.Sprintf("n%d", i), "-peers", peerSpec(addrs))
		}
		nd := &node{id: fmt.Sprintf("n%d", i), url: "http://" + addr, cmd: exec.CommandContext(ctx, bin, args...), stderr: &bytes.Buffer{}}
		nd.cmd.Stderr = nd.stderr
		if err := nd.cmd.Start(); err != nil {
			t.stop()
			return nil, err
		}
		t.nodes = append(t.nodes, nd)
	}
	for _, nd := range t.nodes {
		if err := waitHealthy(nd.url, 10*time.Second); err != nil {
			t.stop()
			return nil, fmt.Errorf("%s: %w\n%s", nd.id, err, nd.stderr)
		}
	}
	return t, nil
}

func waitHealthy(url string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(url + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after %v: %w", limit, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startInProcess wires n nodes the way cmd/entangled's main does and
// serves each on a loopback listener, so fleet peers talk over the
// real HTTPTransport. cacheParent is as for startDaemons.
func startInProcess(_ context.Context, n int, cacheParent string) (*target, error) {
	dirs, err := cacheDirs(cacheParent, n)
	if err != nil {
		return nil, err
	}
	t := &target{}
	lns := make([]net.Listener, 0, n)
	addrs := make([]string, n)
	fail := func(err error) (*target, error) {
		for _, ln := range lns[len(t.nodes):] { // not yet owned by a server
			ln.Close()
		}
		t.stop()
		return nil, err
	}
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	for i, ln := range lns {
		nd, err := newInProcessNode(i, addrs, dirs[i])
		if err != nil {
			return fail(err)
		}
		go func() { _ = nd.httpSrv.Serve(ln) }() // returns when stop shuts the server down
		t.nodes = append(t.nodes, nd)
	}
	return t, nil
}

func newInProcessNode(i int, addrs []string, cacheDir string) (*node, error) {
	vc, err := vcache.Open(vcache.Config{Dir: cacheDir})
	if err != nil {
		return nil, err
	}
	nd := &node{id: fmt.Sprintf("n%d", i), url: "http://" + addrs[i]}
	cfg := server.Config{Options: core.Options{Cache: vc}, DefaultTimeout: 5 * time.Minute}
	if len(addrs) > 1 {
		members, err := cluster.ParsePeers(peerSpec(addrs))
		if err != nil {
			return nil, err
		}
		ms, err := cluster.NewMembership(nd.id, members)
		if err != nil {
			return nil, err
		}
		client := cluster.NewClient(cluster.ClientConfig{Transport: &cluster.HTTPTransport{}})
		nd.fleet, err = cluster.NewCache(cluster.CacheConfig{Membership: ms, Local: vc, Client: client})
		if err != nil {
			return nil, err
		}
		fleet := nd.fleet
		cfg.Options.Cache, cfg.Local = fleet, vc
		cfg.ClusterInfo = func() any {
			return map[string]any{"cache": fleet.ClusterStats(), "client": fleet.ClientStats()}
		}
	}
	nd.srv = server.New(cfg)
	nd.httpSrv = &http.Server{Handler: nd.srv}
	return nd, nil
}

// stop ends every node and waits for subprocesses to exit. Cache
// directories stay until the run ends: on the reference machine's
// filesystem, deleting thousands of verdict files slows the file
// creation of whatever is measured next.
func (t *target) stop() {
	for _, nd := range t.nodes {
		switch {
		case nd.cmd != nil:
			_ = nd.cmd.Process.Signal(syscall.SIGTERM)
		case nd.httpSrv != nil:
			if nd.fleet != nil {
				nd.fleet.Close()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = nd.httpSrv.Shutdown(ctx)
			cancel()
		}
	}
	for _, nd := range t.nodes {
		if nd.cmd == nil {
			continue
		}
		done := make(chan struct{})
		go func() { _ = nd.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = nd.cmd.Process.Kill()
			<-done
		}
	}
}

// daemonStats is the part of /v1/stats the harness reads.
type daemonStats struct {
	Requests int64                 `json:"requests"`
	Cache    *vcache.StatsSnapshot `json:"cache"`
	Cluster  *struct {
		Cache  cluster.CacheStats  `json:"cache"`
		Client cluster.ClientStats `json:"client"`
	} `json:"cluster"`
}

// fleetStats sums /v1/stats over the nodes.
type fleetStats struct {
	cache   vcache.StatsSnapshot
	cluster cluster.CacheStats
	client  cluster.ClientStats
}

func (t *target) stats() (fleetStats, error) {
	var sum fleetStats
	for _, nd := range t.nodes {
		resp, err := http.Get(nd.url + "/v1/stats")
		if err != nil {
			return sum, err
		}
		var ds daemonStats
		err = json.NewDecoder(resp.Body).Decode(&ds)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("%s: decoding /v1/stats: %w", nd.id, err)
		}
		if c := ds.Cache; c != nil {
			sum.cache.Hits += c.Hits
			sum.cache.MemHits += c.MemHits
			sum.cache.DiskHits += c.DiskHits
			sum.cache.Misses += c.Misses
			sum.cache.Evictions += c.Evictions
			sum.cache.Stores += c.Stores
		}
		if c := ds.Cluster; c != nil {
			sum.cluster.PeerHits += c.Cache.PeerHits
			sum.cluster.PeerMisses += c.Cache.PeerMisses
			sum.cluster.Degraded += c.Cache.Degraded
			sum.cluster.Forwards += c.Cache.Forwards
			sum.cluster.ForwardFailures += c.Cache.ForwardFailures
			sum.client.Retries += c.Client.Retries
		}
	}
	return sum, nil
}

// procUsage reads the subprocesses' CPU time (user+system) and peak
// resident set from /proc, summed over the nodes.
func (t *target) procUsage() (cpu time.Duration, peakRSSMB float64, err error) {
	for _, nd := range t.nodes {
		if nd.cmd == nil {
			continue
		}
		c, err := procCPU(nd.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		cpu += c
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", nd.cmd.Process.Pid))
		if err != nil {
			return 0, 0, err
		}
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, 0, fmt.Errorf("parsing %q: %w", line, err)
				}
				peakRSSMB += kb / 1024
			}
		}
	}
	return cpu, peakRSSMB, nil
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU reads utime+stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after
	// its closing parenthesis. utime and stime are fields 14 and 15.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat cpu fields", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}
