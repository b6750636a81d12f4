package mckp

import (
	"errors"
	"math"
	"testing"
)

// The ranges of a fuzzed instance, small enough that BruteForce stays
// cheap: up to 6 items of 1 to 4 choices, weights 0-7, costs 0-99 and a
// budget of 0-20.
const (
	fuzzItems   = 6
	fuzzChoices = 4
	fuzzWeights = 8
	fuzzCosts   = 100
	fuzzBudgets = 21
)

// decodeInstance reads an instance from fuzz bytes: the budget, the
// number of items, then each item's number of choices and each choice's
// weight and cost. Every byte folds into its value's range, and missing
// bytes read as zero.
func decodeInstance(data []byte) ([]Item, int) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0]) % n
		data = data[1:]
		return v
	}
	budget := next(fuzzBudgets)
	items := make([]Item, next(fuzzItems+1))
	for i := range items {
		items[i].Choices = make([]Choice, 1+next(fuzzChoices))
		for c := range items[i].Choices {
			items[i].Choices[c] = Choice{Weight: next(fuzzWeights), Cost: float64(next(fuzzCosts))}
		}
	}
	return items, budget
}

// encodeInstance writes the bytes decodeInstance reads back as items
// and budget, once their values are folded into its ranges.
func encodeInstance(items []Item, budget int) []byte {
	data := []byte{byte(budget), byte(len(items))}
	for _, it := range items {
		data = append(data, byte(len(it.Choices)-1))
		for _, c := range it.Choices {
			data = append(data, byte(c.Weight), byte(int(c.Cost)))
		}
	}
	return data
}

// FuzzSolveMatchesBruteForce holds Solve to its exhaustive oracle on
// small instances (see decodeInstance): the two agree on whether a
// selection fits, reach the same cost, and Solve's selection fits the
// budget. The corpus is seeded with the fixed cases of mckp_test.go.
func FuzzSolveMatchesBruteForce(f *testing.F) {
	for _, c := range []struct {
		items  []Item
		budget int
	}{
		// TestTwoItems, TestBudgetLoose, TestInfeasible, TestEmptyItems,
		// TestZeroWeightChoice and TestTightBudgetPrefersCheaperMisses.
		{[]Item{{Choices: []Choice{{1, 10}, {2, 4}}}, {Choices: []Choice{{1, 8}, {2, 2}}}}, 3},
		{[]Item{{Choices: []Choice{{1, 10}, {4, 1}}}, {Choices: []Choice{{1, 20}, {8, 2}}}}, 100},
		{[]Item{{Choices: []Choice{{5, 1}}}}, 4},
		{nil, 10},
		{[]Item{{Choices: []Choice{{0, 100}, {3, 1}}}, {Choices: []Choice{{0, 50}, {3, 1}}}}, 3},
		{[]Item{{Choices: []Choice{{1, 1000}, {2, 990}, {4, 985}}}, {Choices: []Choice{{1, 5000}, {2, 800}, {4, 100}}}}, 5},
	} {
		f.Add(encodeInstance(c.items, c.budget))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		items, budget := decodeInstance(data)
		got, err := Solve(items, budget)
		want, werr := BruteForce(items, budget)
		if (err == nil) != (werr == nil) {
			t.Fatalf("budget %d, items %v: Solve %v, BruteForce %v", budget, items, err, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrInfeasible) || !errors.Is(werr, ErrInfeasible) {
				t.Fatalf("budget %d, items %v: Solve %v, BruteForce %v, want ErrInfeasible", budget, items, err, werr)
			}
			return
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9 || got.Weight > budget {
			t.Fatalf("budget %d, items %v: Solve costs %v at weight %d, BruteForce %v", budget, items, got.Cost, got.Weight, want.Cost)
		}
	})
}
