// IXP route manipulation: the §7.5 / Figure 9 scenario, run through the
// scenario registry against a tiny generated Internet — conflicting
// announce-to / don't-announce-to communities at a route server whose
// published evaluation order handles suppression first, so an attacker
// can veto another member's route.
//
//	go run ./examples/ixp-manipulation
package main

import (
	"fmt"
	"log"

	"bgpworms/internal/attack"
	"bgpworms/internal/scenario"
)

func main() {
	s, _ := scenario.Get("route-manipulation")
	fmt.Printf("== %s: %s (difficulty %s) ==\n", s.Section, s.Title, s.Difficulty)
	fmt.Println(s.Summary)
	fmt.Println()

	var results []*scenario.Result
	for _, hijack := range []bool{false, true} {
		res, err := scenario.Run("route-manipulation", &scenario.Context{
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
