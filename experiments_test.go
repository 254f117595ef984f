package presp_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"presp"
)

// TestRuntimeExperimentsDeterministic renders every experiment twice in
// one process and requires byte equality. Go randomises map iteration
// per range statement, so a result that depends on map order shows up
// as a difference between the two renders. The second render of fig4
// draws the pixel buffers the first handed back to the WAMI free list,
// so a plane released while still in use shows up here too.
func TestRuntimeExperimentsDeterministic(t *testing.T) {
	for _, name := range presp.ExperimentNames() {
		first, err := presp.RunExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		second, err := presp.RunExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Errorf("%s renders differ between two runs:\n--- first ---\n%s\n--- second ---\n%s", name, first, second)
		}
	}
}

// TestExperimentsMatchGolden pins every rendered value of the paper's
// artifacts: the whole `presp-bench` output (each experiment in
// ExperimentNames order, one trailing newline apiece) must equal
// testdata/experiments.golden byte for byte. The shape and ordering
// tests elsewhere pass a change that moves a cell by 10%; this one
// makes every moved cell an explicit diff. Regenerate only for an
// intended output change, with:
//
//	go test . -run TestExperimentsMatchGolden -update
func TestExperimentsMatchGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range presp.ExperimentNames() {
		out, err := presp.RunExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	got := b.String()
	golden := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s:%d differs\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}

// TestExperimentsDocMatchesGolden checks the measured cells that
// EXPERIMENTS.md copies by hand against testdata/experiments.golden:
// Table III's T_tot after each "→", Table IV's full/semi/serial, Table
// V's PR-ESP/mono and gain, Table VI's per-tile sizes, and Fig 4's
// time/frame and J/frame rounded to the precision the document prints.
// A golden regenerated for an intended output change fails here until
// the document follows it.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	raw, err = os.ReadFile(filepath.Join("testdata", "experiments.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	check := func(where, doc, golden string) {
		t.Helper()
		if doc != golden {
			t.Errorf("%s: EXPERIMENTS.md has %q, the golden %q", where, doc, golden)
		}
	}

	t.Run("Table III", func(t *testing.T) {
		gold := goldenTable(t, golden, "Table III")
		tTot := make(map[string]string, len(gold))
		for _, row := range gold {
			tTot[row["SoC"]+" τ="+row["τ"]] = row["T_tot"]
		}
		rows := docTable(t, doc, "## Table III")
		cells := 0
		for _, row := range rows[1:] {
			for c := 1; c < len(row)-1; c++ {
				if row[c] == "–" {
					continue
				}
				_, measured, ok := strings.Cut(row[c], "→")
				if !ok {
					t.Fatalf("Table III %s %s: cell %q has no →", row[0], rows[0][c], row[c])
				}
				key := row[0] + " " + rows[0][c]
				check("Table III "+key, unmark(measured), tTot[key])
				cells++
			}
		}
		if cells != len(gold) {
			t.Errorf("Table III: EXPERIMENTS.md has %d measured cells, the golden %d rows", cells, len(gold))
		}
	})

	t.Run("Table IV", func(t *testing.T) {
		gold := goldenRows(t, golden, "Table IV")
		rows := docTable(t, doc, "## Table IV")
		for _, row := range rows[1:] {
			g := gold[row[0]]
			times, _, _ := strings.Cut(row[3], ",")
			want := g["fully-par"] + "/" + g["semi-par"] + "/" + g["serial"]
			check("Table IV "+row[0]+" full/semi/serial", times, want)
		}
		if len(rows)-1 != len(gold) {
			t.Errorf("Table IV: EXPERIMENTS.md has %d rows, the golden %d", len(rows)-1, len(gold))
		}
	})

	t.Run("Table V", func(t *testing.T) {
		gold := goldenRows(t, golden, "Table V")
		rows := docTable(t, doc, "## Table V")
		for _, row := range rows[1:] {
			g := gold[row[0]]
			times, gain, _ := strings.Cut(row[2], "(")
			check("Table V "+row[0]+" PR-ESP / mono", strings.TrimSpace(times), g["T_tot"]+" / "+g["mono T_tot"])
			check("Table V "+row[0]+" gain", unmark(strings.TrimSuffix(gain, ")")), g["gain"])
		}
		if len(rows)-1 != len(gold) {
			t.Errorf("Table V: EXPERIMENTS.md has %d rows, the golden %d", len(rows)-1, len(gold))
		}
	})

	t.Run("Table VI", func(t *testing.T) {
		perSoC := make(map[string][]string)
		for _, row := range goldenTable(t, golden, "Table VI") {
			perSoC[row["SoC"]] = append(perSoC[row["SoC"]], row["pbs (KB)"])
		}
		rows := docTable(t, doc, "## Table VI")
		for _, row := range rows[1:] {
			check("Table VI "+row[0]+" per tile", row[2], strings.Join(perSoC[row[0]], ", "))
		}
		if len(rows)-1 != len(perSoC) {
			t.Errorf("Table VI: EXPERIMENTS.md has %d rows, the golden %d SoCs", len(rows)-1, len(perSoC))
		}
	})

	t.Run("Fig 4", func(t *testing.T) {
		gold := goldenRows(t, golden, "Fig 4")
		rows := docTable(t, doc, "## Fig 4")
		for _, row := range rows[1:] {
			soc, _, _ := strings.Cut(row[0], " ")
			g := gold[soc]
			time, _, _ := strings.Cut(row[1], " s")
			check("Fig 4 "+soc+" time/frame", time, roundAs(t, g["time/frame (s)"], time))
			energy, _, _ := strings.Cut(row[2], " ")
			check("Fig 4 "+soc+" J/frame", energy, roundAs(t, g["J/frame"], energy))
		}
		if len(rows)-1 != len(gold) {
			t.Errorf("Fig 4: EXPERIMENTS.md has %d rows, the golden %d", len(rows)-1, len(gold))
		}
	})
}

// unmark strips the emphasis a rendered cell carries: Markdown bold in
// EXPERIMENTS.md, the winner's asterisks in the golden.
func unmark(cell string) string {
	return strings.Trim(strings.TrimSpace(cell), "*")
}

// roundAs renders the golden value v with as many decimals as the
// document's shown value carries.
func roundAs(t *testing.T, v, shown string) string {
	t.Helper()
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		t.Fatalf("golden value %q: %v", v, err)
	}
	decimals := 0
	if _, frac, ok := strings.Cut(shown, "."); ok {
		decimals = len(frac)
	}
	return strconv.FormatFloat(f, 'f', decimals, 64)
}

// docTable returns the first Markdown table after the line starting
// with heading in EXPERIMENTS.md: the header row, then each data row,
// every cell trimmed (the separator row is dropped).
func docTable(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	at := strings.Index(doc, "\n"+heading+" ")
	if at < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	var rows [][]string
	for _, line := range strings.Split(doc[at+1:], "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if strings.Trim(cells[0], "-") == "" {
			continue
		}
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		t.Fatalf("EXPERIMENTS.md %q has no table", heading)
	}
	return rows
}

// goldenTable returns the rows of the golden's block whose title starts
// with title, each a map from column header to its unmarked cell. The
// column bounds come from the block's dash rule, counted in runes.
func goldenTable(t *testing.T, golden, title string) []map[string]string {
	t.Helper()
	for _, block := range strings.Split(golden, "\n\n") {
		lines := strings.Split(strings.Trim(block, "\n"), "\n")
		if !strings.HasPrefix(lines[0], title+" ") || len(lines) < 4 {
			continue
		}
		var starts []int
		rule := []rune(lines[2])
		for i, r := range rule {
			if r == '-' && (i == 0 || rule[i-1] == ' ') {
				starts = append(starts, i)
			}
		}
		split := func(line string) []string {
			rs := []rune(line)
			cells := make([]string, len(starts))
			for c, s := range starts {
				end := len(rs)
				if c+1 < len(starts) && starts[c+1] < end {
					end = starts[c+1]
				}
				if s < end {
					cells[c] = unmark(string(rs[s:end]))
				}
			}
			return cells
		}
		header := split(lines[1])
		var rows []map[string]string
		for _, line := range lines[3:] {
			row := make(map[string]string, len(header))
			for c, cell := range split(line) {
				row[header[c]] = cell
			}
			rows = append(rows, row)
		}
		return rows
	}
	t.Fatalf("the golden has no %q block", title)
	return nil
}

// goldenRows indexes goldenTable's rows by their SoC column.
func goldenRows(t *testing.T, golden, title string) map[string]map[string]string {
	t.Helper()
	rows := goldenTable(t, golden, title)
	bySoC := make(map[string]map[string]string, len(rows))
	for _, row := range rows {
		bySoC[row["SoC"]] = row
	}
	return bySoC
}
