package lcmperf

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lcm/internal/harness"
)

// kvClients is the number of closed-loop clients: each sends its next
// request only when the previous one has returned its result bytes.
const kvClients = 2

// kvTuples is how many distinct (mix, sched_seed) tuples the cold phase of
// a pass submits and its warm phase resubmits, reads and writes
// alternating.
const kvTuples = 4

// kvTarget drives a real lcmd process over HTTP.  One request is POST
// /jobs, then the NDJSON stream of /jobs/{id}/progress to its end, then
// GET /jobs/{id}/result.
type kvTarget struct {
	o      Options
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	// cold and warm are what /cache/stats counted during the cold and the
	// warm phases of every pass so far.
	cold, warm cacheStats
}

type cacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// setUp starts lcmd, waits for /healthz and runs the verified warm-up: one
// job with a tuple of its own, so that no pass finds it cached.
func (t *kvTarget) setUp() ([]op, error) {
	t.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: kvClients}}
	t.cmd = exec.Command(t.o.Lcmd, "-addr", "127.0.0.1:0")
	t.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(hostProcs))
	t.cmd.Stderr = os.Stderr
	out, err := t.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := t.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lcmd: %w", err)
	}
	lines := bufio.NewReader(out)
	line, err := lines.ReadString('\n')
	m := listenRE.FindStringSubmatch(line)
	if err != nil || m == nil {
		return nil, fmt.Errorf("lcmd did not announce its address: %q %v", line, err)
	}
	go io.Copy(io.Discard, lines) //nolint:errcheck // ends when lcmd closes its stdout
	t.base = "http://" + m[1]
	if err := t.waitHealthy(); err != nil {
		return nil, err
	}
	warm := []op{t.request(tuple{mix: "read", seed: t.o.Seed << 32}, "miss", 0, nil, -1)}
	return warm, t.fillHits(warm)
}

func (t *kvTarget) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := t.client.Get(t.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lcmd not healthy after 10 s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains lcmd with SIGTERM and waits for it to exit.
func (t *kvTarget) close() error {
	if t.cmd == nil {
		return nil
	}
	cmd := t.cmd
	t.cmd = nil
	t.client.CloseIdleConnections()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-done
		return errors.New("lcmd did not drain within 30 s of SIGTERM; killed")
	}
}

// tuple is one job's inputs.
type tuple struct {
	mix  string // "read" or "write"
	seed uint64
}

func (tp tuple) id() string { return fmt.Sprintf("KV-%s/%d", tp.mix, tp.seed) }

// tuples derives the jobs of a pass from the run's seed.  Every pass
// submits the same ones: lcmd is started afresh in between, so they are
// uncached each time and must return the same bytes each time.
func (t *kvTarget) tuples() []tuple {
	tps := make([]tuple, kvTuples)
	for i := range tps {
		tps[i] = tuple{mix: "read", seed: t.o.Seed<<32 + uint64(i+1)}
		if i%2 != 0 {
			tps[i].mix = "write"
		}
	}
	return tps
}

// pass runs the two phases from the closed-loop clients: the cold one
// submits the pass's tuples, which lcmd has to run, and the warm one
// resubmits them round-robin, which it has to answer from its result cache.
// A warm op has the id of its cold one, so the run compares their bytes.
func (t *kvTarget) pass(_ int, tr *tracer, parent int) pass {
	tps := t.tuples()
	var stats [3]cacheStats
	statsErr := t.getJSON("/cache/stats", &stats[0])

	cold := t.submitAll(tps, "miss", tr, parent)
	if err := t.getJSON("/cache/stats", &stats[1]); statsErr == nil {
		statsErr = err
	}
	if err := t.fillHits(cold.ops); statsErr == nil {
		statsErr = err
	}

	again := make([]tuple, t.o.Workload.Ops)
	for i := range again {
		again[i] = tps[i%kvTuples]
	}
	warm := t.submitAll(again, "hit", tr, parent)
	if err := t.getJSON("/cache/stats", &stats[2]); statsErr == nil {
		statsErr = err
	}
	for i := range warm.ops {
		first := cold.ops[i%kvTuples]
		warm.ops[i].lcm, warm.ops[i].stache = first.lcm, first.stache
	}

	c, w := stats[1].sub(stats[0]), stats[2].sub(stats[1])
	if statsErr == nil && (c.Hits != 0 || w.Misses != 0) {
		statsErr = fmt.Errorf("/cache/stats: %d hits in the cold phase, %d misses in the warm one", c.Hits, w.Misses)
	}
	t.cold, t.warm = t.cold.add(c), t.warm.add(w)
	p := pass{ops: append(cold.ops, warm.ops...), wall: cold.wall + warm.wall}
	if statsErr != nil && p.ops[0].err == nil {
		p.ops[0].err = statsErr
	}
	return p
}

func (c cacheStats) add(o cacheStats) cacheStats {
	return cacheStats{Hits: c.Hits + o.Hits, Misses: c.Misses + o.Misses}
}

func (c cacheStats) sub(o cacheStats) cacheStats {
	return cacheStats{Hits: c.Hits - o.Hits, Misses: c.Misses - o.Misses}
}

// submitAll shares tps between the clients; each takes the next unsent
// tuple when its previous request has completed.
func (t *kvTarget) submitAll(tps []tuple, wantCache string, tr *tracer, parent int) pass {
	p := pass{ops: make([]op, len(tps))}
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < kvClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range next {
				p.ops[i] = t.request(tps[i], wantCache, lane, tr, parent)
			}
		}(c + 1)
	}
	for i := range tps {
		next <- i
	}
	close(next)
	wg.Wait()
	p.wall = time.Since(t0)
	return p
}

// request runs one job to its result bytes and checks that lcmd answered
// it from where wantCache says ("hit" or "miss").  The observables of a
// miss are decoded from the bytes; those of a hit are its first reply's.
func (t *kvTarget) request(tp tuple, wantCache string, lane int, tr *tracer, parent int) op {
	x := op{id: tp.id(), kind: tp.mix, warm: wantCache == "hit"}
	spec, _ := json.Marshal(map[string]any{
		"kind": "grid", "cells": []string{"KV-" + tp.mix},
		"p": t.o.P, "scale": t.o.Workload.Scale, "verify": true, "sched_seed": tp.seed,
	})

	t0 := time.Now()
	h := tr.begin("serve.submit", x.id, parent, lane)
	var sub struct{ ID, Cache string }
	body, err := t.do(http.MethodPost, "/jobs", spec)
	if err == nil {
		err = json.Unmarshal(body, &sub)
	}
	tr.end(h)
	t1 := time.Now()
	if err != nil {
		x.err = err
		return x
	}

	h = tr.begin("serve.progress", sub.ID, parent, lane)
	_, err = t.do(http.MethodGet, "/jobs/"+sub.ID+"/progress", nil)
	tr.end(h)
	t2 := time.Now()
	if err != nil {
		x.err = err
		return x
	}

	h = tr.begin("serve.fetch", sub.ID, parent, lane)
	body, err = t.do(http.MethodGet, "/jobs/"+sub.ID+"/result", nil)
	tr.end(h)
	t3 := time.Now()
	x.submit, x.progress, x.fetch, x.wall = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	if err != nil {
		x.err = err
		return x
	}
	x.job, x.bytes, x.exact = sub.ID, len(body), string(body)
	if sub.Cache != wantCache {
		x.err = fmt.Errorf("job %s: cache %q, want %q", sub.ID, sub.Cache, wantCache)
		return x
	}
	if x.warm {
		return x
	}

	var bf harness.BenchFile
	if err := json.Unmarshal(body, &bf); err != nil {
		x.err = fmt.Errorf("job %s: result: %w", sub.ID, err)
		return x
	}
	for _, r := range bf.Records {
		n := counts{
			Cycles: r.SimCycles, Misses: r.SimMisses, CleanCopies: r.CleanCopies,
			Msgs: r.NetMsgs, Bytes: r.NetBytes, QueueCycles: r.NetQueueCycles,
			MaxLinkBusy: r.MaxLinkBusy, KVOps: r.KVOps,
		}
		if r.System == "copying" {
			x.stache.add(n)
		} else {
			x.lcm.add(n)
		}
	}
	if tr != nil {
		// Outside the request's latency: how long the job itself ran.
		var st struct {
			WallNS int64 `json:"wall_ns"`
		}
		if err := t.getJSON("/jobs/"+sub.ID, &st); err == nil {
			x.run = time.Duration(st.WallNS)
		}
	}
	return x
}

// do sends one request and reads the whole reply; a status outside 2xx
// is an error carrying the body.
func (t *kvTarget) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

func (t *kvTarget) getJSON(path string, v any) error {
	b, err := t.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

var sampleRE = regexp.MustCompile(`^lcmd_tempest_(hits|flushes|barriers)\{job="([^"]+)",.*system="([^"]+)"\} (\d+)$`)

// fillHits adds what the result bytes leave out — hits, flushes and
// barriers — from the per-job samples of /metrics.
func (t *kvTarget) fillHits(ops []op) error {
	body, err := t.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return err
	}
	type split struct{ lcm, stache counts }
	byJob := make(map[string]*split)
	for _, line := range strings.Split(string(body), "\n") {
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		sp := byJob[m[2]]
		if sp == nil {
			sp = new(split)
			byJob[m[2]] = sp
		}
		c := &sp.lcm
		if m[3] == "copying" {
			c = &sp.stache
		}
		v, _ := strconv.ParseInt(m[4], 10, 64)
		switch m[1] {
		case "hits":
			c.Hits += v
		case "flushes":
			c.Flushes += v
		case "barriers":
			c.Barriers += v
		}
	}
	for i := range ops {
		x := &ops[i]
		if x.err != nil {
			continue
		}
		sp := byJob[x.job]
		if sp == nil {
			return fmt.Errorf("/metrics has no samples of job %s", x.job)
		}
		x.lcm.add(sp.lcm)
		x.stache.add(sp.stache)
	}
	return nil
}

// layerMetrics reports the serve layer as its clients see it: the legs of
// the timed requests, and from the traced ones the server's own run time
// and what the service adds on top of it.
func (t *kvTarget) layerMetrics(timed, traced []pass, vals map[string]float64) {
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	var submit, progress, fetch, warm, cold, size []float64
	byKind := make(map[string][]float64)
	for _, p := range timed {
		for _, x := range p.ops {
			submit = append(submit, ms(x.submit))
			progress = append(progress, ms(x.progress))
			fetch = append(fetch, ms(x.fetch))
			size = append(size, float64(x.bytes))
			if x.warm {
				warm = append(warm, ms(x.wall))
			} else {
				cold = append(cold, ms(x.wall))
				byKind[x.kind] = append(byKind[x.kind], ms(x.wall))
			}
		}
	}
	vals["serve.submit_ms_p50"] = median(submit)
	vals["serve.progress_ms_p50"] = median(progress)
	vals["serve.fetch_ms_p50"] = median(fetch)
	vals["serve.result_bytes"] = median(size)
	vals["serve.warm_ms_p50"] = median(warm)
	vals["serve.warm_ms_p99"] = quantile(warm, 0.99)
	vals["serve.cold_read_ms_p50"] = median(byKind["read"])
	vals["serve.cold_write_ms_p50"] = median(byKind["write"])
	vals["serve.cold_ms_p90"] = quantile(cold, 0.90)

	var overhead []float64
	run := make(map[string][]float64)
	for _, p := range traced {
		for _, x := range p.ops {
			if !x.warm {
				run[x.kind] = append(run[x.kind], ms(x.run))
				overhead = append(overhead, ms(x.wall-x.run))
			}
		}
	}
	vals["serve.run_ms_p50_read"] = median(run["read"])
	vals["serve.run_ms_p50_write"] = median(run["write"])
	vals["serve.overhead_ms_p50"] = median(overhead)

	t0 := time.Now()
	if _, err := t.do(http.MethodGet, "/metrics", nil); err == nil {
		vals["serve.metrics_scrape_ms"] = ms(time.Since(t0))
	}
	if n := t.cold.Hits + t.cold.Misses; n > 0 {
		vals["serve.cache_hit_ratio_cold"] = float64(t.cold.Hits) / float64(n)
	}
	if n := t.warm.Hits + t.warm.Misses; n > 0 {
		vals["serve.cache_hit_ratio_warm"] = float64(t.warm.Hits) / float64(n)
	}
	vals["serve.rss_mb"] = peakRSSMB(strconv.Itoa(t.cmd.Process.Pid))
}
