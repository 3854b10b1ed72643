package pmnf

import (
	"math"
	"testing"

	"extradeep/internal/mathutil"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFactorEvalPolynomial(t *testing.T) {
	f := Factor{PolyExp: 2}
	if got := f.Eval(3); !mathutil.Close(got, 9) {
		t.Errorf("x² at 3 = %v, want 9", got)
	}
}

func TestFactorEvalLog(t *testing.T) {
	f := Factor{LogExp: 2}
	if got := f.Eval(8); !mathutil.Close(got, 9) {
		t.Errorf("log²(8) = %v, want 9", got)
	}
}

func TestFactorEvalMixed(t *testing.T) {
	f := Factor{PolyExp: 1, LogExp: 1}
	if got := f.Eval(4); !mathutil.Close(got, 8) {
		t.Errorf("x·log(x) at 4 = %v, want 8", got)
	}
}

func TestFactorEvalFractional(t *testing.T) {
	f := Factor{PolyExp: 2.0 / 3.0}
	if got := f.Eval(8); !approx(got, 4, 1e-9) {
		t.Errorf("x^(2/3) at 8 = %v, want 4", got)
	}
}

func TestFactorEvalConstant(t *testing.T) {
	f := Factor{}
	if got := f.Eval(123); !mathutil.Close(got, 1) {
		t.Errorf("constant factor = %v, want 1", got)
	}
	if !f.IsConstant() {
		t.Error("IsConstant false for empty factor")
	}
}

func TestFactorDomain(t *testing.T) {
	f := Factor{LogExp: 1}
	if !math.IsNaN(f.Eval(0)) {
		t.Error("log factor at 0 should be NaN")
	}
	if !math.IsNaN(f.Eval(-2)) {
		t.Error("log factor at -2 should be NaN")
	}
}

func TestFactorRender(t *testing.T) {
	cases := []struct {
		f    Factor
		want string
	}{
		{Factor{}, "1"},
		{Factor{PolyExp: 1}, "p"},
		{Factor{PolyExp: 2}, "p^2"},
		{Factor{PolyExp: 2.0 / 3.0}, "p^(2/3)"},
		{Factor{PolyExp: 0.25}, "p^(1/4)"},
		{Factor{LogExp: 1}, "log2(p)"},
		{Factor{LogExp: 2}, "log2(p)^2"},
		{Factor{PolyExp: 1.5, LogExp: 1}, "p^(3/2)*log2(p)"},
	}
	for _, c := range cases {
		if got := c.f.Render("p"); got != c.want {
			t.Errorf("Render(%+v) = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestTermEval(t *testing.T) {
	term := Term{Coefficient: 2, Factors: []Factor{{Param: 0, PolyExp: 1}, {Param: 1, LogExp: 1}}}
	// 2 · x1 · log2(x2) at (3, 4) = 2·3·2 = 12
	if got := term.Eval([]float64{3, 4}); !mathutil.Close(got, 12) {
		t.Errorf("term = %v, want 12", got)
	}
}

func TestTermEvalBasisExcludesCoefficient(t *testing.T) {
	term := Term{Coefficient: 5, Factors: []Factor{{Param: 0, PolyExp: 2}}}
	if got := term.EvalBasis([]float64{3}); !mathutil.Close(got, 9) {
		t.Errorf("basis = %v, want 9", got)
	}
}

func TestTermEvalOutOfRangeParam(t *testing.T) {
	term := Term{Coefficient: 1, Factors: []Factor{{Param: 3, PolyExp: 1}}}
	if got := term.Eval([]float64{1}); !math.IsNaN(got) {
		t.Errorf("out-of-range param = %v, want NaN", got)
	}
}

func TestFunctionEvalCaseStudyModel(t *testing.T) {
	// The paper's case-study model: T(x) = 158.58 + 0.58·x^(2/3)·log2(x)².
	fn := &Function{
		Constant: 158.58,
		Terms: []Term{{
			Coefficient: 0.58,
			Factors:     []Factor{{Param: 0, PolyExp: 2.0 / 3.0, LogExp: 2}},
		}},
	}
	// At x=40 the paper reports ≈352.37 s.
	got := fn.Eval(40)
	// (the paper rounds the printed coefficients, so allow ±2 s)
	if !approx(got, 352.37, 2.0) {
		t.Errorf("T(40) = %v, want ≈352.37", got)
	}
}

func TestFunctionString(t *testing.T) {
	fn := &Function{
		Constant:   158.58,
		ParamNames: []string{"p"},
		Terms: []Term{{
			Coefficient: 0.58,
			Factors:     []Factor{{Param: 0, PolyExp: 2.0 / 3.0, LogExp: 2}},
		}},
	}
	want := "158.6 + 0.58*p^(2/3)*log2(p)^2"
	if got := fn.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestFunctionStringNegativeTerm(t *testing.T) {
	fn := &Function{
		Constant: 10,
		Terms:    []Term{{Coefficient: -2, Factors: []Factor{{Param: 0, PolyExp: 1}}}},
	}
	want := "10 - 2*x1"
	if got := fn.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestConstantFunction(t *testing.T) {
	fn := ConstantFunction(7)
	if got := fn.Eval(99, 3); !mathutil.Close(got, 7) {
		t.Errorf("constant fn = %v, want 7", got)
	}
	if g := fn.Growth(); g.PolyDegree != 0 || g.LogDegree != 0 {
		t.Errorf("constant growth = %v, want O(1)", g)
	}
}

func TestGrowthCompare(t *testing.T) {
	cases := []struct {
		a, b Growth
		want int
	}{
		{Growth{1, 0}, Growth{2, 0}, -1},
		{Growth{2, 0}, Growth{1, 0}, 1},
		{Growth{1, 0}, Growth{1, 1}, -1},
		{Growth{1, 1}, Growth{1, 1}, 0},
		{Growth{0, 1}, Growth{0.5, 0}, -1}, // log grows slower than any root
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGrowthString(t *testing.T) {
	cases := []struct {
		g    Growth
		want string
	}{
		{Growth{}, "O(1)"},
		{Growth{1, 0}, "O(x)"},
		{Growth{2, 1}, "O(x^2*log2(x))"},
		{Growth{0, 2}, "O(log2(x)^2)"},
	}
	for _, c := range cases {
		if got := c.g.String(); got != c.want {
			t.Errorf("Growth%v.String = %q, want %q", c.g, got, c.want)
		}
	}
}

func TestFunctionGrowthDominantTerm(t *testing.T) {
	fn := &Function{
		Constant: 5,
		Terms: []Term{
			{Coefficient: 100, Factors: []Factor{{Param: 0, PolyExp: 1}}},
			{Coefficient: 0.001, Factors: []Factor{{Param: 0, PolyExp: 2, LogExp: 1}}},
		},
	}
	g := fn.Growth()
	if !mathutil.Close(g.PolyDegree, 2) || g.LogDegree != 1 {
		t.Errorf("growth = %v, want {2 1}", g)
	}
}

func TestFunctionGrowthIgnoresZeroCoefficients(t *testing.T) {
	fn := &Function{
		Terms: []Term{
			{Coefficient: 0, Factors: []Factor{{Param: 0, PolyExp: 3}}},
			{Coefficient: 1, Factors: []Factor{{Param: 0, PolyExp: 1}}},
		},
	}
	if g := fn.Growth(); !mathutil.Close(g.PolyDegree, 1) {
		t.Errorf("growth = %v, want poly degree 1", g)
	}
}

func TestFunctionGrowthMultiParam(t *testing.T) {
	fn := &Function{
		Terms: []Term{{
			Coefficient: 1,
			Factors:     []Factor{{Param: 0, PolyExp: 1}, {Param: 1, PolyExp: 0.5, LogExp: 1}},
		}},
	}
	g := fn.Growth()
	if !approx(g.PolyDegree, 1.5, 1e-12) || g.LogDegree != 1 {
		t.Errorf("growth = %v, want {1.5 1}", g)
	}
}
