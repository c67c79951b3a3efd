package sweep

import "fmt"

// Grid declares a factorial experiment design as a literal: a base
// Scenario plus product Axes. Expand crosses the axes in declaration
// order, so a Grid replaces the hand-rolled nested loops the figure
// drivers used to carry.
type Grid struct {
	// Base is the scenario every cell starts from. Its Label, if any,
	// prefixes every cell label.
	Base Scenario
	// Axes are the swept dimensions, applied left to right. A cell's
	// label is the base label joined with each axis point's label by "/".
	Axes []Axis
}

// Axis is one swept dimension of a Grid.
type Axis struct {
	// Name identifies the dimension (documentation and error messages).
	Name string
	// Points are the values the dimension takes.
	Points []Point
}

// Point is one value of an Axis: a label for result output plus a
// mutation applied to the cell's scenario. A nil Set labels the cell
// without changing it (useful when the driver interprets the coordinate
// itself).
type Point struct {
	Label string
	Set   func(*Scenario)
}

// axis builds a one-field axis: each value is labelled by format and
// written into the cell's scenario by set.
func axis[T any](name, format string, set func(*Scenario, T), vals []T) Axis {
	ax := Axis{Name: name}
	for _, v := range vals {
		ax.Points = append(ax.Points, Point{
			Label: fmt.Sprintf(format, v),
			Set:   func(sc *Scenario) { set(sc, v) },
		})
	}
	return ax
}

// Ks sweeps the puzzle difficulty k (solutions required).
func Ks(vals ...uint8) Axis {
	return axis("k", "k=%d", func(sc *Scenario, v uint8) { sc.Params.K = v }, vals)
}

// Ms sweeps the puzzle difficulty m (bits per solution).
func Ms(vals ...uint8) Axis {
	return axis("m", "m=%d", func(sc *Scenario, v uint8) { sc.Params.M = v }, vals)
}

// Defenses sweeps the server protection.
func Defenses(vals ...Defense) Axis {
	return axis("defense", "defense=%s", func(sc *Scenario, v Defense) { sc.Defense = v }, vals)
}

// Attacks sweeps the botnet behaviour.
func Attacks(vals ...Attack) Axis {
	return axis("attack", "attack=%s", func(sc *Scenario, v Attack) { sc.Attack = v }, vals)
}

// BotCounts sweeps the botnet size.
func BotCounts(vals ...int) Axis {
	return axis("bots", "bots=%d", func(sc *Scenario, v int) { sc.BotCount = v }, vals)
}

// PerBotRates sweeps the per-bot attack rate (packets/second).
func PerBotRates(vals ...float64) Axis {
	return axis("rate", "rate=%g", func(sc *Scenario, v float64) { sc.PerBotRate = v }, vals)
}

// Seeds sweeps the scenario seed, for replicated designs.
func Seeds(vals ...int64) Axis {
	return axis("seed", "seed=%d", func(sc *Scenario, v int64) { sc.Seed = v }, vals)
}

// Variants is a free-form axis for dimensions that change several fields
// at once (a defense mode paired with its difficulty, an adoption mix).
func Variants(name string, points ...Point) Axis {
	return Axis{Name: name, Points: points}
}

// Expand produces the grid's deduplicated cell list in deterministic
// row-major order (the last declared axis varies fastest). When scale is
// non-nil it rescales the base deployment before the axes apply, so axis
// coordinates always win over the scale's load shape. Cells whose
// canonical scenarios, labels included, compare equal but for the unread
// Shards are emitted once, so replicated axis points do not re-run.
func (g Grid) Expand(scale *Scale) []Scenario {
	base := g.Base
	if scale != nil {
		base = scale.Apply(base)
	}
	cells := []Scenario{base}
	for _, ax := range g.Axes {
		if len(ax.Points) == 0 {
			continue
		}
		next := make([]Scenario, 0, len(cells)*len(ax.Points))
		for _, cell := range cells {
			for _, pt := range ax.Points {
				c := cell
				if pt.Set != nil {
					pt.Set(&c)
				}
				c.Label = joinLabel(cell.Label, pt.Label)
				next = append(next, c)
			}
		}
		cells = next
	}
	seen := make(map[Scenario]bool, len(cells))
	out := cells[:0]
	for _, c := range cells {
		// One map operation per cell: the set grows only by a new key.
		n := len(seen)
		if seen[c.Defaults().cell()] = true; len(seen) > n {
			out = append(out, c)
		}
	}
	return out
}

func joinLabel(base, part string) string {
	switch {
	case part == "":
		return base
	case base == "":
		return part
	default:
		return base + "/" + part
	}
}
