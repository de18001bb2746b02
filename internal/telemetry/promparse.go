package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParseExposition is a minimal Prometheus text-exposition (0.0.4)
// checker: it validates the line grammar (HELP/TYPE comments, sample
// lines, metric and label names), enforces one TYPE per family declared
// before its samples, rejects duplicate samples, and — for families
// typed histogram — checks that the `le` buckets are cumulative
// (non-decreasing in bound order), that an `+Inf` bucket exists, and
// that it agrees with the family's `_count`.
//
// It returns every sample keyed by its full name including the label
// body (`name{a="b"}`), so callers can assert cross-scrape counter
// monotonicity. It is the checker the sudoku-cached self-check (the CI
// metrics-smoke job) runs against a live /metrics scrape.
func ParseExposition(r io.Reader) (map[string]float64, error) {
	samples := make(map[string]float64)
	typed := make(map[string]MetricType)
	seenSamples := make(map[string]bool) // families with samples already emitted
	// histogram bookkeeping: family -> label-body (minus le) -> le -> cum
	type bucketSet map[string]float64
	hists := make(map[string]map[string]bucketSet)
	counts := make(map[string]map[string]float64) // family -> labels -> _count

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, typed, seenSamples); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineno, err)
			}
			continue
		}
		name, labels, value, err := parseSample(stripExemplar(line))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		key := name
		if labels != "" {
			key += "{" + labels + "}"
		}
		if _, dup := samples[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineno, key)
		}
		samples[key] = value

		fam, suffix := histFamily(name, typed)
		if fam != "" {
			switch suffix {
			case "_bucket":
				le, rest, err := splitLE(labels)
				if err != nil {
					return nil, fmt.Errorf("line %d: %s: %w", lineno, name, err)
				}
				if hists[fam] == nil {
					hists[fam] = make(map[string]bucketSet)
				}
				if hists[fam][rest] == nil {
					hists[fam][rest] = make(bucketSet)
				}
				hists[fam][rest][le] = value
			case "_count":
				if counts[fam] == nil {
					counts[fam] = make(map[string]float64)
				}
				counts[fam][labels] = value
			}
			seenSamples[fam] = true
		} else {
			seenSamples[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for fam, byLabels := range hists {
		for labels, buckets := range byLabels {
			if err := checkBuckets(fam, labels, buckets, counts[fam][labels]); err != nil {
				return nil, err
			}
		}
	}
	return samples, nil
}

// parseComment validates `# HELP name text` and `# TYPE name type`
// lines; other comments pass through.
func parseComment(line string, typed map[string]MetricType, seen map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	case "TYPE":
		if len(fields) < 4 || !validName(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name := fields[2]
		var t MetricType
		switch fields[3] {
		case "counter":
			t = TypeCounter
		case "gauge":
			t = TypeGauge
		case "histogram":
			t = TypeHistogram
		case "summary", "untyped":
			t = MetricType(-1)
		default:
			return fmt.Errorf("unknown TYPE %q for %s", fields[3], name)
		}
		if _, dup := typed[name]; dup {
			return fmt.Errorf("second TYPE line for %s", name)
		}
		if seen[name] {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		typed[name] = t
	}
	return nil
}

// stripExemplar drops an OpenMetrics exemplar suffix (` # {...} value
// [ts]`) from a sample line. The 0.0.4 text format has no in-line
// comments, so an unquoted '#' inside a sample line can only introduce
// an exemplar annotation.
func stripExemplar(line string) string {
	inq := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inq {
				i++
			}
		case '"':
			inq = !inq
		case '#':
			if !inq {
				return strings.TrimRight(line[:i], " \t")
			}
		}
	}
	return line
}

// parseSample splits `name[{labels}] value [timestamp]` and validates
// each part.
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unterminated label set in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
		if err := validateLabelBody(labels); err != nil {
			return "", "", 0, err
		}
	} else {
		k := strings.IndexAny(rest, " \t")
		if k < 0 {
			return "", "", 0, fmt.Errorf("sample without value: %q", line)
		}
		name = rest[:k]
		rest = strings.TrimSpace(rest[k:])
	}
	if !validName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", 0, fmt.Errorf("malformed sample %q", line)
	}
	value, err = parseValue(fields[0])
	if err != nil {
		return "", "", 0, fmt.Errorf("bad value in %q: %w", line, err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", "", 0, fmt.Errorf("bad timestamp in %q", line)
		}
	}
	return name, labels, value, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validateLabelBody walks `k="v",k2="v2"` with escape handling.
func validateLabelBody(body string) error {
	if body == "" {
		return nil
	}
	rest := body
	for {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return fmt.Errorf("label without '=' in %q", body)
		}
		if !validLabelName(strings.TrimSpace(rest[:eq])) {
			return fmt.Errorf("invalid label name %q", rest[:eq])
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value in %q", body)
		}
		i := 1
		for i < len(rest) {
			if rest[i] == '\\' {
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			i++
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated label value in %q", body)
		}
		rest = rest[i+1:]
		if rest == "" {
			return nil
		}
		if rest[0] != ',' {
			return fmt.Errorf("junk after label value in %q", body)
		}
		rest = rest[1:]
	}
}

// histFamily maps a sample name to its histogram family when the base
// name (sans _bucket/_sum/_count suffix) was TYPE'd histogram.
func histFamily(name string, typed map[string]MetricType) (fam, suffix string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			base := strings.TrimSuffix(name, suf)
			if t, ok := typed[base]; ok && t == TypeHistogram {
				return base, suf
			}
		}
	}
	return "", ""
}

// splitLE extracts the le label and returns the remaining label body in
// canonical order.
func splitLE(body string) (le, rest string, err error) {
	parts := splitLabels(body)
	var kept []string
	for _, p := range parts {
		if strings.HasPrefix(p, "le=") {
			le = strings.Trim(p[len("le="):], `"`)
			continue
		}
		kept = append(kept, p)
	}
	if le == "" {
		return "", "", fmt.Errorf("_bucket sample without le label (%q)", body)
	}
	sort.Strings(kept)
	return le, strings.Join(kept, ","), nil
}

// splitLabels splits a validated label body on commas outside quotes.
func splitLabels(body string) []string {
	if body == "" {
		return nil
	}
	var out []string
	start, inq := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			if inq {
				i++
			}
		case '"':
			inq = !inq
		case ',':
			if !inq {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	return append(out, body[start:])
}

// checkBuckets enforces cumulative non-decreasing bucket counts in
// ascending le order, the +Inf terminal, and _count agreement.
func checkBuckets(fam, labels string, buckets map[string]float64, count float64) error {
	inf, ok := buckets["+Inf"]
	if !ok {
		return fmt.Errorf("%s{%s}: histogram without +Inf bucket", fam, labels)
	}
	type bound struct {
		le  float64
		cum float64
	}
	bounds := make([]bound, 0, len(buckets))
	for le, cum := range buckets {
		if le == "+Inf" {
			continue
		}
		v, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("%s{%s}: bad le %q", fam, labels, le)
		}
		bounds = append(bounds, bound{v, cum})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].le < bounds[j].le })
	prev := 0.0
	for _, b := range bounds {
		if b.cum < prev {
			return fmt.Errorf("%s{%s}: bucket le=%g count %g < previous %g (not cumulative)",
				fam, labels, b.le, b.cum, prev)
		}
		prev = b.cum
	}
	if inf < prev {
		return fmt.Errorf("%s{%s}: +Inf bucket %g < le=%g bucket %g", fam, labels, inf, bounds[len(bounds)-1].le, prev)
	}
	if count != inf {
		return fmt.Errorf("%s{%s}: _count %g != +Inf bucket %g", fam, labels, count, inf)
	}
	return nil
}
