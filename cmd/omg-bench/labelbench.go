package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"omg/internal/export"
	"omg/internal/labelsvc"
)

// This file benchmarks the collector's active-learning loop: seeding the
// live candidate index out of the retained violation log (once per
// process in production) and serving budgeted /v1/labels/next pulls over
// it while ingest keeps folding into it. Both are measured at full
// retained scale (>= 1M violations) because that is where the pool scan
// dominates — small pools flatter the selector. The numbers go to
// BENCH_7.json.

// labelPullBudget is the batch size every timed pull requests.
const labelPullBudget = 64

// labelTrickleBatch is the frame ingested before every timed pull.
const labelTrickleBatch = 256

// benchLabelReport is the machine-readable shape written to BENCH_7.json.
type benchLabelReport struct {
	Bench      string `json:"bench"`
	Quick      bool   `json:"quick"`
	Violations int    `json:"violations"`
	Pool       int    `json:"pool_candidates"`
	Assertions int    `json:"assertions"`
	Budget     int    `json:"budget"`
	Selector   string `json:"selector"`

	Assembly struct {
		Assemblies     int     `json:"assemblies"`
		NsPerViolation float64 `json:"ns_per_violation"`
		MsPerAssembly  float64 `json:"ms_per_assembly"`
	} `json:"assembly"`

	Next struct {
		// IngestBeforePull violations are ingested (untimed) before every
		// timed pull, so a pull folds their deltas like a live one does.
		IngestBeforePull int     `json:"ingest_before_pull"`
		Pulls            int     `json:"pulls"`
		NsPerPull        float64 `json:"ns_per_pull"`
		NsPerCandidate   float64 `json:"ns_per_candidate"`
		PullsPerSec      float64 `json:"pulls_per_sec"`
	} `json:"next"`

	Feedback struct {
		Items     int     `json:"items"`
		NsPerItem float64 `json:"ns_per_item"`
	} `json:"feedback"`
}

// renderLabelBench ingests n violations into an in-memory collector,
// times seeds of the candidate index (the "assembly" fields: the full
// rebuild, which production pays once), then serves timed
// /v1/labels/next pulls — a fresh 256-violation batch ingested before
// each — and /v1/labels/feedback posts through the real HTTP handler, the
// deployed path a label puller hits. Results land in outPath
// (machine-readable; "" skips the file).
func renderLabelBench(quick bool, outPath string) (string, error) {
	// 1M retained violations -> 1M distinct (stream, sample) candidates:
	// the acceptance scale the selection loop must stay interactive at.
	n, assemblies, pulls := 1_000_000, 3, 16
	if quick {
		n, assemblies, pulls = 100_000, 2, 8
	}
	rep := benchLabelReport{Bench: "labels", Quick: quick, Violations: n, Budget: labelPullBudget}

	c, err := export.OpenCollector(export.CollectorConfig{Shards: 1})
	if err != nil {
		return "", err
	}
	defer c.Close()
	if _, err := driveCollectorIngest(c, n); err != nil {
		return "", fmt.Errorf("label bench ingest: %w", err)
	}

	// --- Candidate assembly: the seed — one read of the full retained log
	// folded into per-sample candidates. Ingest no longer forces one; a
	// restore does, which is how the bench gets to time several.
	svc := c.Labels()
	var assemblyWall time.Duration
	var stats labelsvc.Stats
	for t := 0; t < assemblies; t++ {
		svc.RestoreState(svc.StateSnapshot()) // drop the index: the next call seeds
		start := time.Now()
		stats = svc.Stats()
		assemblyWall += time.Since(start)
	}
	rep.Pool = stats.Pool
	rep.Assertions = stats.Assertions
	rep.Selector = stats.Selector

	// --- Serving: timed pulls through the real handler, then the labels
	// posted back. Every pull follows one ingested frame, so it measures
	// what a pull beside live ingest costs: folding the frame's deltas +
	// availability scan + selection + lease + encode.
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var pulled []labelsvc.Candidate
	var pullWall time.Duration
	for i := 0; i < pulls; i++ {
		frame := export.Batch{Source: "bench-trickle", Seq: uint64(i + 1)}
		for j := 0; j < labelTrickleBatch; j++ {
			frame.Violations = append(frame.Violations, storeBenchViolation(n+i*labelTrickleBatch+j))
		}
		if got, dup := c.Ingest(frame); dup || got != labelTrickleBatch {
			return "", fmt.Errorf("trickle frame %d: accepted %d of %d (dup=%v)", i, got, labelTrickleBatch, dup)
		}
		pullStart := time.Now()
		resp, err := http.Get(fmt.Sprintf("%s%s?budget=%d&puller=bench-%d", srv.URL, export.LabelsNextPath, labelPullBudget, i))
		if err != nil {
			return "", err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("labels/next: %s: %s", resp.Status, body)
		}
		var batch export.LabelsNextResponse
		if err := json.Unmarshal(body, &batch); err != nil {
			return "", fmt.Errorf("labels/next decode: %w", err)
		}
		if batch.Count != labelPullBudget {
			return "", fmt.Errorf("pull %d served %d candidates, want %d", i, batch.Count, labelPullBudget)
		}
		pulled = append(pulled, batch.Candidates...)
		pullWall += time.Since(pullStart)
	}

	fb := export.LabelsFeedbackRequest{Version: export.WireVersion}
	for _, cand := range pulled {
		fb.Labels = append(fb.Labels, labelsvc.Feedback{SampleKey: cand.SampleKey, ModelCorrect: false})
	}
	fbBody, err := json.Marshal(fb)
	if err != nil {
		return "", err
	}
	fbStart := time.Now()
	resp, err := http.Post(srv.URL+export.LabelsFeedbackPath, "application/json", bytes.NewReader(fbBody))
	if err != nil {
		return "", err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fbWall := time.Since(fbStart)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("labels/feedback: %s", resp.Status)
	}

	rep.Assembly.Assemblies = assemblies
	rep.Assembly.NsPerViolation = float64(assemblyWall.Nanoseconds()) / float64(assemblies) / float64(n)
	rep.Assembly.MsPerAssembly = float64(assemblyWall.Nanoseconds()) / float64(assemblies) / 1e6
	rep.Next.IngestBeforePull = labelTrickleBatch
	rep.Next.Pulls = pulls
	rep.Next.NsPerPull = float64(pullWall.Nanoseconds()) / float64(pulls)
	rep.Next.NsPerCandidate = rep.Next.NsPerPull / float64(labelPullBudget)
	rep.Next.PullsPerSec = float64(pulls) / pullWall.Seconds()
	rep.Feedback.Items = len(fb.Labels)
	rep.Feedback.NsPerItem = float64(fbWall.Nanoseconds()) / float64(len(fb.Labels))

	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return "", fmt.Errorf("write %s: %w", outPath, err)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Label loop over %d retained violations (%d candidates, %d assertions, selector %s):\n",
		rep.Violations, rep.Pool, rep.Assertions, rep.Selector)
	fmt.Fprintf(&b, "  index seed:           %10.1f ns/violation  (%.1f ms per full rebuild, once per process)\n",
		rep.Assembly.NsPerViolation, rep.Assembly.MsPerAssembly)
	fmt.Fprintf(&b, "  /v1/labels/next:      %10.0f ns/pull       (budget %d, %.1f pulls/s, %d violations ingested before each)\n",
		rep.Next.NsPerPull, rep.Budget, rep.Next.PullsPerSec, rep.Next.IngestBeforePull)
	fmt.Fprintf(&b, "  /v1/labels/feedback:  %10.0f ns/label      (%d labels in one post)\n",
		rep.Feedback.NsPerItem, rep.Feedback.Items)
	if outPath != "" {
		fmt.Fprintf(&b, "  results written to %s\n", outPath)
	}
	return b.String(), nil
}
