package main

// Closed-loop load generation and answer checking. The daemon's
// callers are CI jobs and engineers that each wait for their verdict,
// so every client sends its next request only when the previous one
// has been answered.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entangle/internal/server"
)

// clients is the closed loop's width: one keep-alive connection per
// core of the 2-core reference machine.
const clients = 2

// checkAnswer compares one response with the request's known answer
// and expected cache shape. It returns "" when both hold, else what
// was wrong; shape reports whether the miss is a workload-shape
// violation rather than a wrong verdict.
func checkAnswer(r request, status int, resp []byte) (problem string, shape bool) {
	b := r.body
	if status != http.StatusOK {
		return fmt.Sprintf("status %d: %s", status, firstLine(resp)), false
	}
	if b.Path == "/v1/recheck" {
		var rr server.RecheckResponse
		if err := json.Unmarshal(resp, &rr); err != nil {
			return "undecodable response: " + err.Error(), false
		}
		if rr.BaseVerdict != "refined" || len(rr.Candidates) != 1 || rr.Candidates[0].Verdict != "refined" {
			return "recheck not refined: " + firstLine(resp), false
		}
		c := rr.Candidates[0]
		if c.RecheckedOps != b.Cone || c.ReplayedOps != b.Ops-b.Cone {
			return fmt.Sprintf("re-checked %d and replayed %d of %d operators, the edit's cone has %d",
				c.RecheckedOps, c.ReplayedOps, b.Ops, b.Cone), true
		}
		return "", false
	}
	var cr server.CheckResponse
	if err := json.Unmarshal(resp, &cr); err != nil {
		return "undecodable response: " + err.Error(), false
	}
	if cr.Verdict != "refined" {
		return fmt.Sprintf("verdict %q: %s", cr.Verdict, firstLine([]byte(cr.Error))), false
	}
	if cr.OpsProcessed != b.Ops {
		return fmt.Sprintf("%d operators processed, G_s has %d", cr.OpsProcessed, b.Ops), false
	}
	for _, o := range b.Outputs {
		if len(cr.OutputRelation[o]) == 0 {
			return fmt.Sprintf("no output relation for G_s output %q", o), false
		}
	}
	switch r.expect {
	case expectCold:
		if cr.Cache.Hits != 0 {
			return fmt.Sprintf("cold request saw %d cache hits", cr.Cache.Hits), true
		}
	case expectWarm:
		if cr.Cache.Misses != 0 {
			return fmt.Sprintf("warm request saw %d cache misses", cr.Cache.Misses), true
		}
	}
	return "", false
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// tally counts one phase's outcomes.
type tally struct {
	attempted       int
	failed          int // transport errors, wrong status or verdict, shape violations
	shapeViolations int
	problems        []string // the first few, for the operator
}

func (t *tally) record(name, problem string, shape bool) {
	t.attempted++
	if problem == "" {
		return
	}
	t.failed++
	if shape {
		t.shapeViolations++
	}
	if len(t.problems) < 5 {
		t.problems = append(t.problems, name+": "+problem)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.shapeViolations += o.shapeViolations
	for _, p := range o.problems {
		if len(t.problems) < 5 {
			t.problems = append(t.problems, p)
		}
	}
}

// loadResult is one closed-loop phase as the clients saw it.
type loadResult struct {
	tally
	latencies []time.Duration // one per completed request
	expects   []expectation   // the kind of each, parallel to latencies
	wall      time.Duration
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 2 * time.Minute}
}

func post(c *http.Client, url string, data []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// runLoad walks reqs in order with a closed loop of `clients`
// keep-alive clients until the stream is exhausted or limit has passed
// (0 = no limit), checking every answer.
func runLoad(t *target, reqs []request, limit time.Duration) (*loadResult, error) {
	if clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%d clients on %d cores: the load generator would queue behind itself", clients, runtime.NumCPU())
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  = &loadResult{}
		wg   sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newHTTPClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || (limit > 0 && time.Since(start) >= limit) {
					return
				}
				r := reqs[i]
				t0 := time.Now()
				status, resp, err := post(c, t.nodes[r.node].url+r.body.Path, r.body.Data)
				lat := time.Since(t0)
				problem, shape := "", false
				if err != nil {
					problem = "transport: " + err.Error()
				} else {
					problem, shape = checkAnswer(r, status, resp)
				}
				mu.Lock()
				res.record(r.body.Name, problem, shape)
				res.latencies = append(res.latencies, lat)
				res.expects = append(res.expects, r.expect)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res, nil
}

// gate is the known-answer gate run before any timing: every zoo
// combination refines with a relation for every G_s output, the six
// HTTP-reachable Table-3 defects are disproved at the documented
// operator, and an oversized and a malformed body are refused.
func gate(t *target) (tally, error) {
	var out tally
	zoo, err := gateBodies()
	if err != nil {
		return out, err
	}
	reqs := make([]request, len(zoo))
	for i, b := range zoo {
		reqs[i] = request{body: b, expect: expectCold}
	}
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	url := t.nodes[0].url
	// The refusals go first: the daemon holds a refused connection open
	// for half a second, which would otherwise delay its shutdown.
	refused := []struct {
		name string
		data []byte
		want int
	}{
		{"malformed", []byte(`{"gs": [`), http.StatusBadRequest},
		{"oversized", oversizedBody(), http.StatusRequestEntityTooLarge},
	}
	for _, rf := range refused {
		status, _, err := post(c, url+"/v1/check", rf.data)
		if err != nil {
			return out, err
		}
		problem := ""
		if status != rf.want {
			problem = fmt.Sprintf("status %d, want %d", status, rf.want)
		}
		out.record(rf.name, problem, false)
	}

	checked, err := runLoad(t, reqs, 0)
	if err != nil {
		return out, err
	}
	out.add(checked.tally)

	bugs, err := defects()
	if err != nil {
		return out, err
	}
	for _, d := range bugs {
		status, resp, err := post(c, url+d.Body.Path, d.Body.Data)
		if err != nil {
			return out, err
		}
		var cr server.CheckResponse
		problem := ""
		switch {
		case status != http.StatusUnprocessableEntity:
			problem = fmt.Sprintf("status %d, want 422", status)
		case json.Unmarshal(resp, &cr) != nil || cr.Verdict != "failed":
			problem = "not a failed verdict: " + firstLine(resp)
		case !strings.Contains(cr.Error, fmt.Sprintf("operator %q", d.Label)):
			problem = fmt.Sprintf("not localized at %q: %s", d.Label, firstLine([]byte(cr.Error)))
		}
		out.record(d.Body.Name, problem, false)
	}
	return out, nil
}

// oversizedBody is well-formed JSON up to and past the daemon's
// default body cap, so only the cap can refuse it.
func oversizedBody() []byte {
	b := bytes.Repeat([]byte{'a'}, server.DefaultMaxBodyBytes+16)
	copy(b, `{"gs":"`)
	return b
}
