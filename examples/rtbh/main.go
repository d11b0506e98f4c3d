// RTBH: the §7.3 / Figure 7 remotely-triggered blackholing attack, run
// through the scenario registry — without and with prefix hijacking —
// against a tiny generated Internet. The hijack variant shows IRR origin
// validation rejecting the announcement until the attacker "updates the
// IRR", exactly as the paper describes.
//
//	go run ./examples/rtbh
package main

import (
	"fmt"
	"log"

	"bgpworms/internal/attack"
	"bgpworms/internal/scenario"
)

func main() {
	fmt.Println("== §7.3: remotely triggered blackholing (scenario registry: rtbh) ==")
	s, _ := scenario.Get("rtbh")
	fmt.Printf("%s (%s, difficulty %s): %s\n\n", s.Title, s.Section, s.Difficulty, s.Summary)

	var results []*scenario.Result
	for _, hijack := range []bool{false, true} {
		res, err := scenario.Run("rtbh", &scenario.Context{
			Values: scenario.Values{"hijack": fmt.Sprint(hijack)},
		})
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, res)
		fmt.Printf("-- hijack=%v: success=%v\n", res.Hijack, res.Success)
		for _, e := range res.Evidence {
			fmt.Println("  ", e)
		}
		for _, i := range res.Insights {
			fmt.Println("   insight:", i)
		}
		fmt.Println()
	}

	fmt.Println(attack.RenderTable3(results))
}
