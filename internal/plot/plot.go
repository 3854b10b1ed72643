// Package plot renders simple, dependency-free SVG charts for the
// experiment reports: line charts with optional confidence bands and
// point markers (Fig. 3, 5, 6, 7 of the paper) and grouped bar charts
// (Fig. 8). The output is deterministic, self-contained SVG 1.1.
package plot

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Palette is the default series color cycle (color-blind friendly).
var Palette = []string{
	"#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#000000",
}

// Series is one line of a line chart.
type Series struct {
	// Name appears in the legend.
	Name string
	// X and Y are the data points, in drawing order.
	X, Y []float64
	// Lo and Hi optionally delimit a confidence band (aligned with X).
	Lo, Hi []float64
	// Markers draws a circle at every point.
	Markers bool
	// Color overrides the palette ("" = automatic).
	Color string
}

// LineChart is a multi-series XY chart.
type LineChart struct {
	Title  string
	XLabel string
	YLabel string
	// Width and Height are the SVG dimensions (defaults 720×420).
	Width, Height int
	Series        []Series
	// LogX uses a log₂ x-axis, natural for rank counts.
	LogX bool
}

const (
	marginLeft   = 64.0
	marginRight  = 16.0
	marginTop    = 36.0
	marginBottom = 48.0
)

// SVG renders the chart.
func (c *LineChart) SVG() (string, error) {
	if len(c.Series) == 0 {
		return "", errors.New("plot: chart has no series")
	}
	w, h := float64(orDefault(c.Width, 720)), float64(orDefault(c.Height, 420))
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return "", fmt.Errorf("plot: series %q has %d x but %d y values", s.Name, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			return "", fmt.Errorf("plot: series %q is empty", s.Name)
		}
		for i := range s.X {
			xv := s.X[i]
			if c.LogX && xv <= 0 {
				return "", fmt.Errorf("plot: series %q has non-positive x on a log axis", s.Name)
			}
			xmin, xmax = math.Min(xmin, xv), math.Max(xmax, xv)
			ymin, ymax = math.Min(ymin, s.Y[i]), math.Max(ymax, s.Y[i])
		}
		for i := range s.Lo {
			ymin, ymax = math.Min(ymin, s.Lo[i]), math.Max(ymax, s.Lo[i])
		}
		for i := range s.Hi {
			ymin, ymax = math.Min(ymin, s.Hi[i]), math.Max(ymax, s.Hi[i])
		}
	}
	if ymax-ymin == 0 {
		ymin, ymax = ymin-1, ymax+1
	}
	// Pad the y-range and start at zero when data is non-negative and
	// close to it.
	pad := (ymax - ymin) * 0.08
	ymax += pad
	if ymin >= 0 && ymin < (ymax-ymin) {
		ymin = 0
	} else {
		ymin -= pad
	}

	if c.LogX && (xmin <= 0 || xmax < xmin) {
		// The per-value validation above guarantees a positive range;
		// re-check the aggregate so a poisoned bound can never reach the
		// log below.
		return "", errors.New("plot: invalid x range on a log axis")
	}
	xform := func(x float64) float64 {
		lo, hi := xmin, xmax
		v := x
		if c.LogX {
			if x <= 0 {
				x = xmin // series validation guarantees positive x; clamp defensively
			}
			lo, hi, v = math.Log2(xmin), math.Log2(xmax), math.Log2(x)
		}
		if hi-lo == 0 {
			return marginLeft
		}
		return marginLeft + (v-lo)/(hi-lo)*(w-marginLeft-marginRight)
	}
	yform := func(y float64) float64 {
		return h - marginBottom - (y-ymin)/(ymax-ymin)*(h-marginTop-marginBottom)
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%g" height="%g" viewBox="0 0 %g %g" font-family="sans-serif" font-size="12">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%g" height="%g" fill="white"/>`+"\n", w, h)
	if c.Title != "" {
		fmt.Fprintf(&b, `<text x="%g" y="20" text-anchor="middle" font-size="14" font-weight="bold">%s</text>`+"\n", w/2, escape(c.Title))
	}

	// Axes.
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", marginLeft, h-marginBottom, w-marginRight, h-marginBottom)
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", marginLeft, marginTop, marginLeft, h-marginBottom)

	// Y ticks.
	for _, t := range niceTicks(ymin, ymax, 6) {
		y := yform(t)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ddd"/>`+"\n", marginLeft, y, w-marginRight, y)
		fmt.Fprintf(&b, `<text x="%g" y="%g" text-anchor="end" dominant-baseline="middle">%s</text>`+"\n", marginLeft-6, y, formatTick(t))
	}
	// X ticks: the union of all series x values (rank counts are few).
	for _, t := range xTicks(c.Series, c.LogX, xmin, xmax) {
		x := xform(t)
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", x, h-marginBottom, x, h-marginBottom+4)
		fmt.Fprintf(&b, `<text x="%g" y="%g" text-anchor="middle">%s</text>`+"\n", x, h-marginBottom+18, formatTick(t))
	}
	if c.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%g" y="%g" text-anchor="middle">%s</text>`+"\n", (marginLeft+w-marginRight)/2, h-10, escape(c.XLabel))
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%g" text-anchor="middle" transform="rotate(-90 14 %g)">%s</text>`+"\n", (marginTop+h-marginBottom)/2, (marginTop+h-marginBottom)/2, escape(c.YLabel))
	}

	// Confidence bands first (underneath the lines).
	for si, s := range c.Series {
		if len(s.Lo) != len(s.X) || len(s.Hi) != len(s.X) || len(s.X) == 0 {
			continue
		}
		color := s.Color
		if color == "" {
			color = Palette[si%len(Palette)]
		}
		var pts []string
		for i := range s.X {
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", xform(s.X[i]), yform(s.Hi[i])))
		}
		for i := len(s.X) - 1; i >= 0; i-- {
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", xform(s.X[i]), yform(s.Lo[i])))
		}
		fmt.Fprintf(&b, `<polygon points="%s" fill="%s" fill-opacity="0.15" stroke="none"/>`+"\n", strings.Join(pts, " "), color)
	}

	// Lines and markers.
	for si, s := range c.Series {
		color := s.Color
		if color == "" {
			color = Palette[si%len(Palette)]
		}
		var pts []string
		for i := range s.X {
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", xform(s.X[i]), yform(s.Y[i])))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`+"\n", strings.Join(pts, " "), color)
		if s.Markers {
			for i := range s.X {
				fmt.Fprintf(&b, `<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>`+"\n", xform(s.X[i]), yform(s.Y[i]), color)
			}
		}
	}

	// Legend.
	lx, ly := marginLeft+10.0, marginTop+4.0
	for si, s := range c.Series {
		if s.Name == "" {
			continue
		}
		color := s.Color
		if color == "" {
			color = Palette[si%len(Palette)]
		}
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="%s" stroke-width="2"/>`+"\n", lx, ly+4, lx+18, ly+4, color)
		fmt.Fprintf(&b, `<text x="%g" y="%g">%s</text>`+"\n", lx+24, ly+8, escape(s.Name))
		ly += 16
	}

	b.WriteString("</svg>\n")
	return b.String(), nil
}

// BarGroup is one x-axis group of a grouped bar chart.
type BarGroup struct {
	// Label names the group (e.g. a benchmark).
	Label string
	// Values are the group's bars, one per chart series.
	Values []float64
}

// BarChart is a grouped bar chart with an optional log₁₀ value axis.
type BarChart struct {
	Title  string
	YLabel string
	// SeriesNames label the bars within each group (legend entries).
	SeriesNames []string
	Groups      []BarGroup
	Width       int
	Height      int
	// LogY uses a log₁₀ y-axis (all values must be positive).
	LogY bool
}

// SVG renders the bar chart.
func (c *BarChart) SVG() (string, error) {
	if len(c.Groups) == 0 || len(c.SeriesNames) == 0 {
		return "", errors.New("plot: bar chart needs groups and series names")
	}
	w, h := float64(orDefault(c.Width, 720)), float64(orDefault(c.Height, 420))
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, g := range c.Groups {
		if len(g.Values) != len(c.SeriesNames) {
			return "", fmt.Errorf("plot: group %q has %d values for %d series", g.Label, len(g.Values), len(c.SeriesNames))
		}
		for _, v := range g.Values {
			if c.LogY && v <= 0 {
				return "", fmt.Errorf("plot: group %q has non-positive value on a log axis", g.Label)
			}
			ymin, ymax = math.Min(ymin, v), math.Max(ymax, v)
		}
	}
	if !c.LogY {
		ymin = 0
	}
	if c.LogY && (ymin <= 0 || ymax < ymin) {
		// The per-value validation above guarantees a positive range;
		// re-check the aggregate so a poisoned bound can never reach the
		// log below.
		return "", errors.New("plot: invalid y range on a log axis")
	}
	yform := func(v float64) float64 {
		lo, hi, val := ymin, ymax, v
		if c.LogY {
			if v <= 0 {
				v = ymin // group validation guarantees positive values; clamp defensively
			}
			lo, hi, val = math.Log10(ymin), math.Log10(ymax), math.Log10(v)
		}
		if hi-lo == 0 {
			return h - marginBottom
		}
		return h - marginBottom - (val-lo)/(hi-lo)*(h-marginTop-marginBottom)*0.95
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%g" height="%g" viewBox="0 0 %g %g" font-family="sans-serif" font-size="12">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%g" height="%g" fill="white"/>`+"\n", w, h)
	if c.Title != "" {
		fmt.Fprintf(&b, `<text x="%g" y="20" text-anchor="middle" font-size="14" font-weight="bold">%s</text>`+"\n", w/2, escape(c.Title))
	}
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", marginLeft, h-marginBottom, w-marginRight, h-marginBottom)
	fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n", marginLeft, marginTop, marginLeft, h-marginBottom)

	groupWidth := (w - marginLeft - marginRight) / float64(len(c.Groups))
	barWidth := groupWidth * 0.8 / float64(len(c.SeriesNames))
	for gi, g := range c.Groups {
		gx := marginLeft + groupWidth*float64(gi)
		for si, v := range g.Values {
			x := gx + groupWidth*0.1 + barWidth*float64(si)
			y := yform(v)
			color := Palette[si%len(Palette)]
			fmt.Fprintf(&b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"/>`+"\n",
				x, y, barWidth*0.92, h-marginBottom-y, color)
			fmt.Fprintf(&b, `<text x="%.2f" y="%.2f" text-anchor="middle" font-size="9">%s</text>`+"\n",
				x+barWidth*0.46, y-3, formatTick(v))
		}
		fmt.Fprintf(&b, `<text x="%.2f" y="%g" text-anchor="middle">%s</text>`+"\n",
			gx+groupWidth/2, h-marginBottom+18, escape(g.Label))
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%g" text-anchor="middle" transform="rotate(-90 14 %g)">%s</text>`+"\n", (marginTop+h-marginBottom)/2, (marginTop+h-marginBottom)/2, escape(c.YLabel))
	}
	// Legend.
	lx, ly := marginLeft+10.0, marginTop+4.0
	for si, name := range c.SeriesNames {
		fmt.Fprintf(&b, `<rect x="%g" y="%g" width="12" height="12" fill="%s"/>`+"\n", lx, ly, Palette[si%len(Palette)])
		fmt.Fprintf(&b, `<text x="%g" y="%g">%s</text>`+"\n", lx+18, ly+10, escape(name))
		ly += 16
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}

// niceTicks returns ≈n round tick values covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if hi <= lo || n < 2 {
		return []float64{lo, hi}
	}
	raw := (hi - lo) / float64(n)
	if raw <= 0 {
		return []float64{lo, hi} // hi > lo makes raw positive; defensive
	}
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag < 1.5:
		step = mag
	case raw/mag < 3.5:
		step = 2 * mag
	case raw/mag < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var out []float64
	for t := math.Ceil(lo/step) * step; t <= hi+step*1e-9; t += step {
		out = append(out, t)
	}
	return out
}

// xTicks collects distinct x values across series (capped to avoid
// clutter).
func xTicks(series []Series, logX bool, xmin, xmax float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	if len(out) > 14 {
		return niceTicks(xmin, xmax, 8)
	}
	sortFloats(out)
	return out
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func formatTick(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e6 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
