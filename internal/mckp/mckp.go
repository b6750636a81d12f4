// Package mckp solves the multiple-choice knapsack problem exactly by
// dynamic programming over the budget.
//
// The paper's (M)ILP of section 3.2 — pick exactly one cache size z_p per
// task such that the total allocated cache stays within the available
// capacity and the total number of misses is minimal — has exactly this
// structure: every task is an item group whose choices are the candidate
// cache sizes, weight = allocation units, cost = m̄(z_p) misses. The DP
// is exact and runs in O(items × budget × choices), trivially fast at the
// paper's scale (tens of entities, 256 units), so it is the production
// solver; internal/ilp solves the same program by LP-based branch and
// bound and the two cross-validate in tests.
package mckp

import (
	"errors"
	"fmt"
	"math"
)

// Choice is one admissible allocation for an item.
type Choice struct {
	Weight int     // allocation units
	Cost   float64 // misses at this allocation
}

// Item is one entity (task, buffer, section) with its candidate sizes.
type Item struct {
	Name    string
	Choices []Choice
}

// Solution holds the chosen alternative per item.
type Solution struct {
	Pick   []int // index into Items[i].Choices
	Cost   float64
	Weight int
}

// Errors returned by Solve.
var (
	ErrNoChoices  = errors.New("mckp: item with no choices")
	ErrBadWeight  = errors.New("mckp: choice with negative weight")
	ErrInfeasible = errors.New("mckp: no selection fits the budget")
)

// Solve picks exactly one choice per item minimizing total cost subject
// to total weight ≤ budget.
func Solve(items []Item, budget int) (*Solution, error) {
	n := len(items)
	if budget < 0 {
		return nil, fmt.Errorf("%w: budget %d", ErrInfeasible, budget)
	}
	for _, it := range items {
		if len(it.Choices) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrNoChoices, it.Name)
		}
		for _, c := range it.Choices {
			if c.Weight < 0 {
				return nil, fmt.Errorf("%w: %q", ErrBadWeight, it.Name)
			}
		}
	}
	const inf = math.MaxFloat64
	// dp[b] = min cost using items 0..i with total weight exactly ≤ b
	// (we keep the "≤ b" closure by a final min-scan per item).
	dp := make([]float64, budget+1)
	pick := make([][]int16, n)
	for b := range dp {
		dp[b] = 0
	}
	cur := make([]float64, budget+1)
	for i, it := range items {
		pick[i] = make([]int16, budget+1)
		for b := 0; b <= budget; b++ {
			cur[b] = inf
			pick[i][b] = -1
			for ci, c := range it.Choices {
				if c.Weight > b {
					continue
				}
				prev := dp[b-c.Weight]
				if prev == inf {
					continue
				}
				if v := prev + c.Cost; v < cur[b] {
					cur[b] = v
					pick[i][b] = int16(ci)
				}
			}
		}
		copy(dp, cur)
	}
	// Find the best budget point.
	bestB := -1
	for b := 0; b <= budget; b++ {
		if dp[b] < inf && (bestB < 0 || dp[b] < dp[bestB]) {
			bestB = b
		}
	}
	if bestB < 0 {
		return nil, ErrInfeasible
	}
	sol := &Solution{Pick: make([]int, n), Cost: dp[bestB]}
	b := bestB
	for i := n - 1; i >= 0; i-- {
		ci := int(pick[i][b])
		if ci < 0 {
			return nil, fmt.Errorf("mckp: internal reconstruction failure at item %d", i)
		}
		sol.Pick[i] = ci
		w := items[i].Choices[ci].Weight
		sol.Weight += w
		b -= w
	}
	return sol, nil
}

// BruteForce enumerates all selections; it is exponential and exists only
// to cross-check Solve in tests.
func BruteForce(items []Item, budget int) (*Solution, error) {
	n := len(items)
	for _, it := range items {
		if len(it.Choices) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrNoChoices, it.Name)
		}
	}
	best := &Solution{Cost: math.MaxFloat64}
	pick := make([]int, n)
	var rec func(i, w int, cost float64)
	rec = func(i, w int, cost float64) {
		if w > budget || cost >= best.Cost {
			return
		}
		if i == n {
			// Pick is non-nil even without items: the empty selection fits.
			best = &Solution{Pick: append(make([]int, 0, n), pick...), Cost: cost, Weight: w}
			return
		}
		for ci, c := range items[i].Choices {
			pick[i] = ci
			rec(i+1, w+c.Weight, cost+c.Cost)
		}
	}
	rec(0, 0, 0)
	if best.Pick == nil {
		return nil, ErrInfeasible
	}
	return best, nil
}
