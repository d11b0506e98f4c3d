package scenario_test

import (
	"fmt"

	_ "bgpworms/internal/attack" // registers the builtin scenarios
	"bgpworms/internal/scenario"
)

// ExampleRun executes one registered scenario against the default tiny
// Internet. A nil context means tiny scale, seed 1, 12 vantage points.
func ExampleRun() {
	res, err := scenario.Run("rtbh", nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: success=%v difficulty=%s\n", res.Scenario, res.Success, res.Difficulty)
	// Output:
	// Blackholing: success=true difficulty=easy
}

// ExampleSweepOpts fans a scenario grid over the harness worker pool.
// The report is bit-identical for any worker count.
func ExampleSweepOpts() {
	rep, err := scenario.SweepOpts(scenario.Grid{
		Scenarios: []string{"rtbh", "route-manipulation"},
		Seeds:     []int64{1, 2},
	}, 4, scenario.SweepOpt{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("cells=%d errored=%d\n", rep.Ran, rep.Errored)
	// Output:
	// cells=4 errored=0
}
