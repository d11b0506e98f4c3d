// Steering: the §7.4 / Figure 2 AS-path-prepending attacks, run through
// the scenario registry against a tiny generated Internet — the classic
// prepend steering (a remote community lengthens paths through the
// target) and the selective variant (only flows crossing the target
// move; bystanders keep their paths).
//
//	go run ./examples/steering
package main

import (
	"fmt"
	"log"

	"bgpworms/internal/attack"
	"bgpworms/internal/scenario"
)

func main() {
	var results []*scenario.Result
	for _, name := range []string{"steering-prepend", "selective-prepend"} {
		s, _ := scenario.Get(name)
		fmt.Printf("== %s: %s (%s, difficulty %s) ==\n", s.Section, s.Title, name, s.Difficulty)
		fmt.Println(s.Summary)
		res, err := scenario.Run(name, nil)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, res)
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
