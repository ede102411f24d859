package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text page, reduced to what the harness
// reads: plain series by full name (labels included), and histogram
// families folded across their label children into one _sum/_count pair.
type scrape struct {
	series map[string]float64
	sum    map[string]float64 // family -> seconds
	count  map[string]float64 // family -> observations
}

// parseMetrics reads a Prometheus text exposition. Lines it cannot parse
// are skipped: the harness reads a handful of series it knows by name and
// must not die on one it does not.
func parseMetrics(r io.Reader) (scrape, error) {
	s := scrape{series: map[string]float64{}, sum: map[string]float64{}, count: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the text after the last space outside the label block.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		name := strings.TrimSpace(line[:cut])
		s.series[name] = v
		family := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			family = name[:i]
		}
		if base, ok := strings.CutSuffix(family, "_sum"); ok {
			s.sum[base] += v
		} else if base, ok := strings.CutSuffix(family, "_count"); ok {
			s.count[base] += v
		}
	}
	return s, sc.Err()
}

// meanSince returns a histogram family's mean observation, in seconds,
// over the interval between an earlier scrape and this one; ok is false
// when nothing was observed in between.
func (s scrape) meanSince(before scrape, family string) (seconds float64, ok bool) {
	n := s.count[family] - before.count[family]
	if n <= 0 {
		return 0, false
	}
	return (s.sum[family] - before.sum[family]) / n, true
}
