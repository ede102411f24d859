package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ValidateExposition parses a Prometheus text-format (version 0.0.4)
// exposition strictly and returns the first violation found. Beyond the
// base grammar (metric/label name syntax, quoted and escaped label
// values, parseable sample values) it enforces the conventions the
// format document leaves to producers:
//
//   - every sample belongs to a family with # HELP and # TYPE declared
//     before its first sample, each at most once;
//   - histogram families expose only _bucket/_sum/_count series, every
//     labelset has a le="+Inf" bucket whose value equals _count, exactly
//     one _sum and _count, and bucket counts are cumulative
//     (non-decreasing in ascending le order);
//   - counter values are finite and non-negative;
//   - no series (name plus canonical labelset) appears twice.
//
// The collector's (mem and disk) and the edge monitor's /metrics tests
// run every scrape page through this, so an exposition regression fails
// CI.
func ValidateExposition(data []byte) error {
	p := &promParser{
		families: make(map[string]*promFamily),
		series:   make(map[string]int),
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if err := p.line(line); err != nil {
			return fmt.Errorf("line %d: %w (%q)", i+1, err, line)
		}
	}
	return p.finish()
}

type promFamily struct {
	name    string
	kind    string
	hasHelp bool
	hasType bool
	samples int
	// histogram bookkeeping, keyed by the labelset minus le
	groups map[string]*histGroup
}

type histGroup struct {
	buckets  map[float64]float64 // le -> cumulative count
	sum      float64
	count    float64
	hasSum   bool
	hasCount bool
	sums     int
	counts   int
}

type promParser struct {
	families map[string]*promFamily
	series   map[string]int
}

func (p *promParser) family(name string) *promFamily {
	f, ok := p.families[name]
	if !ok {
		f = &promFamily{name: name, groups: make(map[string]*histGroup)}
		p.families[name] = f
	}
	return f
}

func (p *promParser) line(line string) error {
	if strings.TrimSpace(line) == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return p.comment(line)
	}
	return p.sample(line)
}

func (p *promParser) comment(line string) error {
	rest := strings.TrimPrefix(line, "#")
	rest = strings.TrimLeft(rest, " ")
	switch {
	case strings.HasPrefix(rest, "HELP "):
		fields := strings.SplitN(rest[len("HELP "):], " ", 2)
		name := fields[0]
		if !validMetricName(name) {
			return fmt.Errorf("HELP for invalid metric name %q", name)
		}
		f := p.family(name)
		if f.hasHelp {
			return fmt.Errorf("duplicate HELP for %q", name)
		}
		if f.samples > 0 {
			return fmt.Errorf("HELP for %q after its first sample", name)
		}
		f.hasHelp = true
		return nil
	case strings.HasPrefix(rest, "TYPE "):
		fields := strings.Fields(rest[len("TYPE "):])
		if len(fields) != 2 {
			return fmt.Errorf("malformed TYPE line")
		}
		name, kind := fields[0], fields[1]
		if !validMetricName(name) {
			return fmt.Errorf("TYPE for invalid metric name %q", name)
		}
		switch kind {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", kind)
		}
		f := p.family(name)
		if f.hasType {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		if f.samples > 0 {
			return fmt.Errorf("TYPE for %q after its first sample", name)
		}
		f.hasType = true
		f.kind = kind
		return nil
	default:
		// free-form comment: allowed, ignored
		return nil
	}
}

// sample parses `name{labels} value [timestamp]`.
func (p *promParser) sample(line string) error {
	name, rest, err := splitMetricName(line)
	if err != nil {
		return err
	}
	labels, rest, err := parseLabels(rest)
	if err != nil {
		return err
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("expected value [timestamp], got %q", rest)
	}
	value, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("bad timestamp %q", fields[1])
		}
	}

	// Resolve the family this sample belongs to: for histograms the
	// series name carries a _bucket/_sum/_count suffix.
	famName, suffix := name, ""
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, s)
		if base != name {
			if f, ok := p.families[base]; ok && f.kind == "histogram" {
				famName, suffix = base, s
			}
			break
		}
	}
	f, ok := p.families[famName]
	if !ok {
		return fmt.Errorf("sample for %q before any HELP/TYPE", famName)
	}
	if !f.hasHelp {
		return fmt.Errorf("family %q has no HELP", famName)
	}
	if !f.hasType {
		return fmt.Errorf("family %q has no TYPE", famName)
	}
	if f.kind == "histogram" && suffix == "" {
		return fmt.Errorf("histogram %q exposes plain series %q", famName, name)
	}
	f.samples++

	key := name + "|" + canonicalLabels(labels)
	if p.series[key] > 0 {
		return fmt.Errorf("duplicate series %q", key)
	}
	p.series[key]++

	switch f.kind {
	case "counter":
		if math.IsNaN(value) || value < 0 {
			return fmt.Errorf("counter %q has invalid value %v", name, value)
		}
	case "histogram":
		return f.histogramSample(suffix, labels, value)
	}
	return nil
}

func (f *promFamily) histogramSample(suffix string, labels [][2]string, value float64) error {
	var le string
	rest := make([][2]string, 0, len(labels))
	for _, l := range labels {
		if l[0] == "le" {
			le = l[1]
			continue
		}
		rest = append(rest, l)
	}
	gkey := canonicalLabels(rest)
	g, ok := f.groups[gkey]
	if !ok {
		g = &histGroup{buckets: make(map[float64]float64)}
		f.groups[gkey] = g
	}
	switch suffix {
	case "_bucket":
		if le == "" {
			return fmt.Errorf("histogram %q bucket without le label", f.name)
		}
		bound, err := parseLe(le)
		if err != nil {
			return fmt.Errorf("histogram %q: %w", f.name, err)
		}
		if math.IsNaN(value) || value < 0 {
			return fmt.Errorf("histogram %q bucket has invalid count %v", f.name, value)
		}
		if _, dup := g.buckets[bound]; dup {
			return fmt.Errorf("histogram %q has duplicate le=%q", f.name, le)
		}
		g.buckets[bound] = value
	case "_sum":
		if le != "" {
			return fmt.Errorf("histogram %q _sum carries a le label", f.name)
		}
		g.sum, g.hasSum = value, true
		g.sums++
	case "_count":
		if le != "" {
			return fmt.Errorf("histogram %q _count carries a le label", f.name)
		}
		if math.IsNaN(value) || value < 0 {
			return fmt.Errorf("histogram %q has invalid count %v", f.name, value)
		}
		g.count, g.hasCount = value, true
		g.counts++
	}
	return nil
}

// finish runs the whole-family checks that need every line first.
func (p *promParser) finish() error {
	names := make([]string, 0, len(p.families))
	for n := range p.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := p.families[n]
		if f.kind != "histogram" {
			continue
		}
		for gkey, g := range f.groups {
			where := fmt.Sprintf("histogram %q{%s}", f.name, gkey)
			if !g.hasSum {
				return fmt.Errorf("%s missing _sum", where)
			}
			if !g.hasCount {
				return fmt.Errorf("%s missing _count", where)
			}
			if g.sums > 1 || g.counts > 1 {
				return fmt.Errorf("%s has repeated _sum/_count", where)
			}
			inf, ok := g.buckets[math.Inf(1)]
			if !ok {
				return fmt.Errorf("%s missing le=\"+Inf\" bucket", where)
			}
			if inf != g.count {
				return fmt.Errorf("%s +Inf bucket %v != _count %v", where, inf, g.count)
			}
			bounds := make([]float64, 0, len(g.buckets))
			for b := range g.buckets {
				bounds = append(bounds, b)
			}
			sort.Float64s(bounds)
			prev := math.Inf(-1)
			prevCount := -1.0
			for _, b := range bounds {
				if b == prev {
					return fmt.Errorf("%s has duplicate bucket bound", where)
				}
				if c := g.buckets[b]; c < prevCount {
					return fmt.Errorf("%s buckets not cumulative at le=%v", where, b)
				} else {
					prevCount = c
				}
				prev = b
			}
		}
	}
	return nil
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) {
		return 0, fmt.Errorf("bad le value %q", s)
	}
	return v, nil
}

// splitMetricName consumes a leading metric name and returns the rest of
// the line (starting at '{' or whitespace).
func splitMetricName(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) && isMetricNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", "", fmt.Errorf("missing metric name")
	}
	return line[:i], line[i:], nil
}

// parseLabels consumes an optional {name="value",...} block.
func parseLabels(s string) ([][2]string, string, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, s, nil
	}
	s = s[1:]
	var labels [][2]string
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		i := 0
		for i < len(s) && isLabelNameChar(s[i], i == 0) {
			i++
		}
		if i == 0 {
			return nil, "", fmt.Errorf("bad label name at %q", s)
		}
		name := s[:i]
		s = s[i:]
		if !strings.HasPrefix(s, "=") {
			return nil, "", fmt.Errorf("label %q missing '='", name)
		}
		s = s[1:]
		value, rest, err := parseQuoted(s)
		if err != nil {
			return nil, "", err
		}
		labels = append(labels, [2]string{name, value})
		s = rest
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if !strings.HasPrefix(s, "}") {
			return nil, "", fmt.Errorf("label %q not followed by ',' or '}'", name)
		}
	}
}

// parseQuoted consumes a double-quoted label value with \\, \" and \n
// escapes.
func parseQuoted(s string) (string, string, error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("label value not quoted at %q", s)
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape in label value")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c in label value", s[i])
			}
		case '\n':
			return "", "", fmt.Errorf("unescaped newline in label value")
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

func canonicalLabels(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([][2]string, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l[0])
		b.WriteString("=")
		b.WriteString(strconv.Quote(l[1]))
	}
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isMetricNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func isMetricNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func isLabelNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}
