package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteCSV emits results as CSV with a header row, ready for plotting the
// paper's figures (EL on a log axis). NaN cells are left empty.
func WriteCSV(w io.Writer, results []Result) error {
	if _, err := io.WriteString(w, "system,alpha,kappa,analytic_el,mc_el,mc_ci95,trials\n"); err != nil {
		return err
	}
	for _, r := range results {
		row := fmt.Sprintf("%s,%s,%s,%s,%s,%s,%d\n",
			r.System,
			formatFloat(r.Alpha),
			formatFloat(r.Kappa),
			formatFloat(r.Analytic),
			formatFloat(r.MC),
			formatFloat(r.MCCI),
			r.Trials,
		)
		if _, err := io.WriteString(w, row); err != nil {
			return err
		}
	}
	return nil
}

// WriteFortifyCSV emits E4 comparison rows as CSV.
func WriteFortifyCSV(w io.Writer, rows []FortifyComparison) error {
	if _, err := io.WriteString(w, "alpha,kappa,s2so_el,s2so_ci95,s0so_el,s2so_outlives\n"); err != nil {
		return err
	}
	for _, r := range rows {
		row := fmt.Sprintf("%s,%s,%s,%s,%s,%t\n",
			formatFloat(r.Alpha),
			formatFloat(r.Kappa),
			formatFloat(r.S2SO),
			formatFloat(r.S2SOCI),
			formatFloat(r.S0SO),
			r.Outlive,
		)
		if _, err := io.WriteString(w, row); err != nil {
			return err
		}
	}
	return nil
}

// WriteAlphaGrowthCSV emits E6 rows as CSV.
func WriteAlphaGrowthCSV(w io.Writer, rows []AlphaGrowthRow) error {
	if _, err := io.WriteString(w, "step,alpha_so,alpha_po\n"); err != nil {
		return err
	}
	for _, r := range rows {
		row := fmt.Sprintf("%d,%s,%s\n", r.Step, formatFloat(r.AlphaSO), formatFloat(r.AlphaPO))
		if _, err := io.WriteString(w, row); err != nil {
			return err
		}
	}
	return nil
}

// formatFloatList renders a float slice semicolon-joined — a single CSV cell
// holding a per-group vector — or empty for a nil slice.
func formatFloatList(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = formatFloat(v)
	}
	return strings.Join(parts, ";")
}

// formatFloat renders a float compactly, leaving NaN empty and marking
// +Inf (the "no compromise observed" sentinel) explicitly.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return ""
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	default:
		return strconv.FormatFloat(v, 'g', 10, 64)
	}
}
