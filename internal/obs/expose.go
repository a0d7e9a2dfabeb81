package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The connection bounds of every HTTP server the commands start. A
// connection that has not sent a whole request header within
// readHeaderTimeout is closed, so idle or half-open connections cannot
// pile up; writeTimeout bounds one response, and with it the longest
// query a daemon will answer; idleTimeout closes a keep-alive
// connection that sends nothing more.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 5 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// NewServer returns an http.Server for h with the connection bounds set.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label
// values, HELP/TYPE headers once per family. Samplers registered with
// OnScrape run first, so gauges fed from existing stats structs are
// current.
func (r *Registry) WriteText(w io.Writer) error {
	fams, samplers := r.sortedFamilies()
	for _, fn := range samplers {
		fn()
	}
	var b strings.Builder
	for _, f := range fams {
		type row struct {
			key  string
			inst instrument
		}
		var rows []row
		f.series.Range(func(k, v any) bool {
			rows = append(rows, row{k.(string), v.(instrument)})
			return true
		})
		if len(rows) == 0 {
			continue
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, row := range rows {
			row.inst.sampleInto(&b, f.name, f.labelPart(row.key))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeHelp(h string) string {
	r := strings.NewReplacer("\\", `\\`, "\n", `\n`)
	return r.Replace(h)
}

// Handler serves GET /metrics scrapes of this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// ---------------------------------------------------------------------------
// Lint
// ---------------------------------------------------------------------------

// Lint validates a text exposition: well-formed lines, every series
// preceded by its family's HELP/TYPE headers, no duplicate series, and
// histogram invariants (cumulative monotone buckets, an +Inf bucket
// equal to _count). Tests and the load generator's scrape assertion
// share it. Returns nil when the exposition is valid.
func Lint(exposition []byte) error {
	sc := bufio.NewScanner(strings.NewReader(string(exposition)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	type hist struct {
		lastCum   uint64
		lastBound float64
		sawInf    bool
		infCount  uint64
		count     uint64
		sawCount  bool
	}
	typed := map[string]string{} // family -> type
	helped := map[string]bool{}
	seen := map[string]bool{} // full series key (name + labels)
	hists := map[string]*hist{}
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(text, "# HELP "), " ", 2)
			if parts[0] == "" {
				return fmt.Errorf("line %d: HELP without metric name", line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(text, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(text, "# TYPE "))
			if len(parts) != 2 {
				return fmt.Errorf("line %d: malformed TYPE line %q", line, text)
			}
			if _, dup := typed[parts[0]]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %q", line, parts[0])
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown type %q", line, parts[1])
			}
			typed[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue // comment
		}

		name, labels, value, err := parseSample(text)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		fam := name
		if typed[fam] == "" {
			// Histogram series carry _bucket/_sum/_count suffixes on
			// the family name.
			if f := familyOf(name); typed[f] == "histogram" {
				fam = f
			}
		}
		if typed[fam] == "" {
			return fmt.Errorf("line %d: series %q before its TYPE header", line, name)
		}
		if !helped[fam] {
			return fmt.Errorf("line %d: series %q before its HELP header", line, name)
		}
		seriesKey := name + labels
		if seen[seriesKey] {
			return fmt.Errorf("line %d: duplicate series %s", line, seriesKey)
		}
		seen[seriesKey] = true

		if typed[fam] == "histogram" {
			hkey := fam + stripLE(labels)
			h := hists[hkey]
			if h == nil {
				h = &hist{}
				hists[hkey] = h
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := leOf(labels)
				if !ok {
					return fmt.Errorf("line %d: histogram bucket without le label", line)
				}
				cum := uint64(value)
				if le == "+Inf" {
					h.sawInf = true
					h.infCount = cum
					if cum < h.lastCum {
						return fmt.Errorf("line %d: +Inf bucket %d below previous cumulative %d", line, cum, h.lastCum)
					}
					break
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("line %d: bad le %q: %w", line, le, err)
				}
				if h.lastCum > 0 || h.lastBound != 0 {
					if bound <= h.lastBound && h.lastBound != 0 {
						return fmt.Errorf("line %d: bucket bounds not increasing (%v after %v)", line, bound, h.lastBound)
					}
					if cum < h.lastCum {
						return fmt.Errorf("line %d: cumulative bucket count decreased (%d after %d)", line, cum, h.lastCum)
					}
				}
				h.lastCum, h.lastBound = cum, bound
			case strings.HasSuffix(name, "_count"):
				h.count = uint64(value)
				h.sawCount = true
			case strings.HasSuffix(name, "_sum"):
			default:
				return fmt.Errorf("line %d: unexpected histogram series %q", line, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for key, h := range hists {
		if !h.sawInf {
			return fmt.Errorf("histogram %s: no +Inf bucket", key)
		}
		if !h.sawCount {
			return fmt.Errorf("histogram %s: no _count series", key)
		}
		if h.infCount != h.count {
			return fmt.Errorf("histogram %s: +Inf bucket %d != count %d", key, h.infCount, h.count)
		}
	}
	return nil
}

// parseSample splits `name{labels} value` / `name value`.
func parseSample(text string) (name, labels string, value float64, err error) {
	rest := text
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces in %q", text)
		}
		labels = rest[i : j+1]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", "", 0, fmt.Errorf("malformed sample %q", text)
		}
		name, rest = fields[0], fields[1]
	}
	if name == "" || !nameRE.MatchString(name) {
		return "", "", 0, fmt.Errorf("invalid metric name in %q", text)
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		return "", "", 0, fmt.Errorf("malformed sample value in %q", text)
	}
	value, err = strconv.ParseFloat(strings.TrimPrefix(fields[0], "+"), 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad value in %q: %w", text, err)
	}
	return name, labels, value, nil
}

// familyOf strips histogram/summary series suffixes.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// leOf extracts the le label's value from a rendered label set.
func leOf(labels string) (string, bool) {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	for _, p := range strings.Split(inner, ",") {
		if v, ok := strings.CutPrefix(p, "le="); ok {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

// stripLE removes the le label so one histogram's buckets group.
func stripLE(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	parts := strings.Split(inner, ",")
	kept := parts[:0]
	for _, p := range parts {
		if !strings.HasPrefix(p, "le=") && p != "" {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}
