package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4): one HELP/TYPE
// header per family, series sorted by name within the family, families
// sorted by name — the render is deterministic for a fixed registry
// state, which is what the golden test pins.

// series is one rendered line-in-waiting.
type series struct {
	name  string // full series name, labels included
	value string
}

// WritePrometheus renders every instrument, and every Sample the collect
// functions emit now, in Prometheus text format. The instruments are
// read under the registry's read lock; collect runs after it is
// released, so it may do anything but write w.
func (r *Registry) WritePrometheus(w io.Writer, collect ...func(emit func(Sample))) error {
	r.mu.RLock()
	fams := make(map[string]family, len(r.families))
	for k, v := range r.families {
		fams[k] = v
	}
	byFam := make(map[string][]series)
	add := func(name, value string) {
		fam, _ := splitName(name)
		byFam[fam] = append(byFam[fam], series{name: name, value: value})
	}

	for name, c := range r.counters {
		add(name, formatUint(c.Value()))
	}
	// Histograms expand under their own family in canonical order
	// (buckets ascending, +Inf, sum, count), per label set sorted by
	// series name.
	histsByFam := make(map[string][]histSeries)
	for name, h := range r.hists {
		fam, labels := splitName(name)
		histsByFam[fam] = append(histsByFam[fam], histSeries{labels: labels, snap: h.snapshot()})
	}
	r.mu.RUnlock()
	for _, fn := range collect {
		fn(func(s Sample) {
			fam, _ := splitName(s.Name)
			if f, ok := fams[fam]; !ok || (f.help == "" && s.Help != "") {
				fams[fam] = family{typ: s.Type, help: s.Help}
			}
			add(s.Name, formatFloat(s.Value))
		})
	}

	names := make([]string, 0, len(byFam)+len(histsByFam))
	for fam := range byFam {
		names = append(names, fam)
	}
	for fam := range histsByFam {
		if _, dup := byFam[fam]; !dup {
			names = append(names, fam)
		}
	}
	sort.Strings(names)
	for _, fam := range names {
		f := fams[fam]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, f.typ); err != nil {
			return err
		}
		ss := byFam[fam]
		sort.Slice(ss, func(i, j int) bool { return ss[i].name < ss[j].name })
		for _, s := range ss {
			if _, err := fmt.Fprintf(w, "%s %s\n", s.name, s.value); err != nil {
				return err
			}
		}
		hs := histsByFam[fam]
		sort.Slice(hs, func(i, j int) bool { return hs[i].labels < hs[j].labels })
		for _, hsr := range hs {
			if err := writeHistSeries(w, fam, hsr); err != nil {
				return err
			}
		}
	}
	return nil
}

// histSeries is one histogram's labels plus a consistent snapshot.
type histSeries struct {
	labels string
	snap   histSnapshot
}

func writeHistSeries(w io.Writer, fam string, hs histSeries) error {
	for i, b := range hs.snap.bounds {
		if _, err := fmt.Fprintf(w, "%s %s\n", bucketName(fam, hs.labels, formatFloat(b)), formatUint(hs.snap.cum[i])); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", bucketName(fam, hs.labels, "+Inf"), formatUint(hs.snap.total)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", withLabels(fam+"_sum", hs.labels), formatFloat(hs.snap.sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", withLabels(fam+"_count", hs.labels), formatUint(hs.snap.total))
	return err
}

// bucketName builds `fam_bucket{...,le="bound"}`, merging the le label
// into an existing label set.
func bucketName(fam, labels, bound string) string {
	le := `le="` + bound + `"`
	if labels == "" {
		return fam + "_bucket{" + le + "}"
	}
	return fam + "_bucket{" + labels + "," + le + "}"
}

// withLabels re-attaches a label set to a derived family name
// (histogram _sum/_count lines).
func withLabels(fam, labels string) string {
	if labels == "" {
		return fam
	}
	return fam + "{" + labels + "}"
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry, plus what collect emits at each request,
// at GET /metrics in Prometheus text format.
func (r *Registry) Handler(collect ...func(emit func(Sample))) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb, collect...); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, sb.String())
	})
}
