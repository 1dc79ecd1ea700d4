package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"psbox/internal/sim"
	"psbox/internal/trace"
)

// Dump is the full state an exporter consumes: retained events
// oldest-first, exact drop accounting, and the owner-name table.
type Dump struct {
	Events  []Event
	Dropped uint64
	Total   uint64
	Owners  map[int]string
}

// An Encoder serializes a dump into one output format. Encoders are
// pluggable Heka-style: the bus knows nothing about formats, tools pick
// an encoder by name and stream the same dump through it.
type Encoder interface {
	Encode(w io.Writer, d *Dump) error
}

// EncoderFor maps a format name to its encoder. The names are the
// --format values psbox-trace and psbox-sim accept.
func EncoderFor(format string) (Encoder, error) {
	switch format {
	case "perfetto":
		return PerfettoEncoder{}, nil
	case "csv":
		return CSVEncoder{}, nil
	case "ascii":
		return ASCIIEncoder{}, nil
	}
	return nil, fmt.Errorf("obs: unknown trace format %q (perfetto, csv, ascii)", format)
}

// PerfettoEncoder writes Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing. Spans become "X" complete
// events and instants "i" events; each category gets its own named
// thread track. The JSON is hand-serialized in event order with fixed
// number formatting so identical dumps give identical bytes.
type PerfettoEncoder struct{}

// catTracks assigns one 1-based tid per category, sorted by name.
func catTracks(events []Event) map[string]int {
	set := make(map[string]bool)
	for _, ev := range events {
		set[ev.Cat] = true
	}
	cats := make([]string, 0, len(set))
	for c := range set {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	out := make(map[string]int, len(cats))
	for i, c := range cats {
		out[c] = i + 1
	}
	return out
}

// usec renders a nanosecond count as exact microseconds ("%d.%03d").
func usec(t sim.Time) string {
	n := int64(t)
	return fmt.Sprintf("%d.%03d", n/1000, n%1000)
}

// jsonStr escapes s as a JSON string literal.
func jsonStr(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Encode implements Encoder.
func (PerfettoEncoder) Encode(w io.Writer, d *Dump) error {
	tids := catTracks(d.Events)
	cats := make([]string, 0, len(tids))
	for c := range tids {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	var b strings.Builder
	b.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	emit(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"psbox"}}`)
	for _, c := range cats {
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`,
			tids[c], jsonStr(c)))
	}
	for _, ev := range d.Events {
		name := ev.Kind
		if ev.Name != "" {
			name = ev.Kind + " " + ev.Name
		}
		owner := d.Owners[ev.Owner]
		if ev.Owner == 0 {
			owner = "kernel"
		} else if owner == "" {
			owner = fmt.Sprintf("app%d", ev.Owner)
		}
		args := fmt.Sprintf(`{"seq":%d,"owner":%s,"arg":%d,"rail":%s}`,
			ev.Seq, jsonStr(owner), ev.Arg, jsonStr(ev.Rail))
		if ev.Type == TypeSpan {
			emit(fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d,"args":%s}`,
				jsonStr(name), jsonStr(ev.Cat), usec(ev.T), usec(sim.Time(ev.End.Sub(ev.T))), tids[ev.Cat], args))
			continue
		}
		emit(fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"i","s":"t","ts":%s,"pid":1,"tid":%d,"args":%s}`,
			jsonStr(name), jsonStr(ev.Cat), usec(ev.T), tids[ev.Cat], args))
	}
	fmt.Fprintf(&b, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":%d,\"total_events\":%d}}\n",
		d.Dropped, d.Total)
	_, err := io.WriteString(w, b.String())
	return err
}

// CSVEncoder writes one row per event with a fixed header, for external
// analysis (pandas, duckdb, gnuplot).
type CSVEncoder struct{}

// csvField quotes a field only when it needs it, keeping output stable.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Encode implements Encoder.
func (CSVEncoder) Encode(w io.Writer, d *Dump) error {
	if _, err := fmt.Fprintln(w, "seq,type,cat,kind,start_ns,end_ns,owner,owner_name,arg,rail,name"); err != nil {
		return err
	}
	for _, ev := range d.Events {
		owner := d.Owners[ev.Owner]
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s,%d,%d,%d,%s,%d,%s,%s\n",
			ev.Seq, ev.Type, csvField(ev.Cat), csvField(ev.Kind),
			int64(ev.T), int64(ev.End), ev.Owner, csvField(owner),
			ev.Arg, csvField(ev.Rail), csvField(ev.Name)); err != nil {
			return err
		}
	}
	if d.Dropped > 0 {
		if _, err := fmt.Fprintf(w, "# WARNING: trace ring dropped %d events (oldest first)\n", d.Dropped); err != nil {
			return err
		}
	}
	return nil
}

// ASCIIEncoder reworks the existing ASCII renderers over the event
// stream: spans become a trace.Gantt (one lane per category), instants a
// stable per-category/kind tally.
type ASCIIEncoder struct{}

// asciiWidth is the ASCII chart's width in cells.
const asciiWidth = 72

// Encode implements Encoder.
func (ASCIIEncoder) Encode(w io.Writer, d *Dump) error {
	g := trace.NewGantt()
	var from, to sim.Time
	spans := 0
	tally := make(map[string]int)
	for _, ev := range d.Events {
		if ev.End > to {
			to = ev.End
		}
		if ev.Type == TypeSpan {
			label := ev.Name
			if label == "" {
				label = ev.Kind
			}
			g.Add(ev.Cat, label, ev.T, ev.End)
			spans++
			continue
		}
		tally[ev.Cat+"/"+ev.Kind]++
	}
	if _, err := fmt.Fprintf(w, "psbox trace: %d events retained (%d spans), %d dropped\n",
		len(d.Events), spans, d.Dropped); err != nil {
		return err
	}
	if d.Dropped > 0 {
		if _, err := fmt.Fprintf(w, "WARNING: trace ring dropped %d events (oldest first)\n", d.Dropped); err != nil {
			return err
		}
	}
	if spans > 0 {
		if _, err := io.WriteString(w, g.Render(from, to, asciiWidth)); err != nil {
			return err
		}
	}
	kinds := make([]string, 0, len(tally))
	for k := range tally {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if _, err := fmt.Fprintf(w, "%6d × %s\n", tally[k], k); err != nil {
			return err
		}
	}
	return nil
}
