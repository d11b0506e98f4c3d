// Measurement: run the §4 passive pipeline end to end on a freshly
// generated Internet — through real MRT bytes, exactly like consuming
// RIS/RouteViews archives.
//
//	go run ./examples/measurement
package main

import (
	"bytes"
	"fmt"
	"log"

	"bgpworms/internal/core"
	"bgpworms/internal/gen"
	"bgpworms/internal/stats"
)

func main() {
	fmt.Println("building a tiny Internet with four collector platforms...")
	w, err := gen.Build(gen.Tiny())
	check(err)
	rep, err := w.RunChurn()
	check(err)
	fmt.Printf("churn: %d re-announcements, %d RTBH episodes\n\n", rep.Reannouncements, len(rep.RTBH))

	// Serialize every collector's archive to MRT and parse it back — the
	// pipeline consumes only the wire format.
	ds := &core.Dataset{}
	for _, c := range w.Collectors {
		var buf bytes.Buffer
		if _, err := c.WriteUpdatesMRT(&buf); err != nil {
			log.Fatal(err)
		}
		part, err := core.ReadMRTUpdates(string(c.Platform), c.Name, &buf)
		check(err)
		ds.Merge(part)
	}
	fmt.Printf("parsed %d updates from %d collectors\n\n", len(ds.Updates), len(ds.Collectors))

	a := core.NewPipeline(0).Analyze(ds, w.Registry.All())
	fmt.Println(core.RenderTable1(a.Table1))
	fmt.Println(core.RenderTable2(a.Table2))

	all, bh := a.Prop.Figure5a()
	fmt.Println(core.RenderFigure5a(all, bh))

	tp := a.Transit
	fmt.Printf("transit ASes forwarding foreign communities: %d of %d (%s)\n",
		tp.Propagators, tp.TransitASes, stats.Pct(tp.Propagators, tp.TransitASes))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
