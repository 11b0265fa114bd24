package main

import (
	"fmt"
	"math"
)

// endToEndNames are the metrics an untraced run reports in its JSON line,
// on every workload (BENCHMARK.json's end_to_end list, in its order).
var endToEndNames = []string{
	"latency_ms_p50", "throughput_per_s",
	"literals", "products", "alloc_mb_per_op", "setup_s",
}

// allEndToEnd are the fourteen end-to-end metrics every untraced run
// prints, by name and unit; the ones a workload does not define print
// n/a. The JSON line leaves out those that are 0 on a correct run
// (mismatches, sim_failures of a fixed program, error_rate,
// nonhazardfree) and those of one workload only (search_s, search_cost),
// because a metric there must exist on every workload and never be 0. It
// also leaves out the two that do not hold steady from run to run on a
// 2-CPU machine: latency_ms_p90, whose rank falls where few ops lie
// (between the cheap and the slow edits of edit-loop, on a handful of
// heavy designs in cold-compile, on one job of three in search), and
// peak_rss_mb, which on search flips between two levels (about 51 and
// 63 MB) with garbage-collection timing.
var allEndToEnd = []string{
	"latency_ms_p50", "latency_ms_p90", "throughput_per_s", "search_s", "search_cost",
	"literals", "products", "nonhazardfree", "mismatches", "sim_failures", "error_rate",
	"alloc_mb_per_op", "peak_rss_mb", "setup_s",
}

// endToEnd derives the end-to-end metrics of an untraced run: its JSON
// result and its report lines.
func endToEnd(workload string, r run) (result, []string) {
	var lat []float64
	failed := 0
	for _, o := range r.Win.Ops {
		lat = append(lat, o.Latency)
		if o.Err != nil {
			failed++
		}
	}
	n := len(r.Win.Ops)
	m := map[string]metric{
		"latency_ms_p50":   {percentile(lat, 50), "ms"},
		"latency_ms_p90":   {percentile(lat, 90), "ms"},
		"throughput_per_s": {float64(n-failed) / (r.Win.Wall / 1000), "1/s"},
		"literals":         {float64(r.Totals.Literals), "count"},
		"products":         {float64(r.Totals.Products), "count"},
		"nonhazardfree":    {float64(r.Served.NonHazardFree), "count"},
		"mismatches":       {float64(r.Check.Mismatches), "count"},
		"sim_failures":     {float64(r.Check.SimFailures), "count"},
		"error_rate":       {float64(failed) / math.Max(1, float64(n)), "ratio"},
		"alloc_mb_per_op":  {float64(r.Win.Alloc) / 1e6 / math.Max(1, float64(n)), "MB"},
		"peak_rss_mb":      {float64(r.Win.RSSKB) * 1024 / 1e6, "MB"},
		"setup_s":          {median(r.Setup), "s"},
	}
	if workload == "search" {
		m["search_s"] = metric{r.Win.Wall / 1000, "s"}
		m["search_cost"] = metric{r.SearchCost, "cost"}
	}
	lines := append([]string(nil), r.Notes...)
	for _, name := range allEndToEnd {
		v, ok := m[name]
		if !ok {
			lines = append(lines, fmt.Sprintf("metric %-17s %14s", name, "n/a"))
			continue
		}
		note := ""
		switch name {
		case "latency_ms_p50":
			note = fmt.Sprintf("samples %d", n)
		case "latency_ms_p90":
			note = fmt.Sprintf("samples %d, %d beyond", n, beyond(n, 90))
			if !tailOK(n, 90) {
				note += fmt.Sprintf(" (fewer than %d: not a tail estimate)", minTailSamples)
			}
		case "error_rate":
			note = fmt.Sprintf("%d of %d ops failed", failed, n)
		case "mismatches":
			note = fmt.Sprintf("of %d checked inputs", r.Check.Checked)
		case "sim_failures":
			note = fmt.Sprintf("%d outside the known gate-closure defect", r.Check.SimUnknown)
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", len(r.Setup))
		}
		lines = append(lines, fmt.Sprintf("metric %-17s %14.4f %-6s %s", name, v.Value, v.Unit, note))
	}
	for _, s := range r.Check.SimFailed {
		lines = append(lines, "sim_failure "+s)
	}
	for _, s := range r.Check.Inconsistent {
		lines = append(lines, "mismatch "+s)
	}
	for _, o := range r.Win.Ops {
		if o.Err != nil {
			lines = append(lines, fmt.Sprintf("failed_op %s: %v", o.Input, o.Err))
		}
	}
	out := map[string]metric{}
	for _, name := range endToEndNames {
		out[name] = m[name]
	}
	correct := r.Check.Mismatches == 0 && r.Check.SimUnknown == 0
	return result{Correct: correct, Attempted: n, Failed: failed, Metrics: out}, lines
}
