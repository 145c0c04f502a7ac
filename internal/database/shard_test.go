package database

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/intern"
)

// idRow interns the given symbols and returns the ID row.
func idRow(tab *intern.Table, names ...string) []intern.ID {
	t := tup(names...)
	row := make([]intern.ID, len(t))
	for i, term := range t {
		row[i] = tab.Intern(term)
	}
	return row
}

func TestContainsRowConcurrentReaders(t *testing.T) {
	tab := intern.NewTable()
	rel := NewRelationWith(tab, "edge", 2)
	rows := make([][]intern.ID, 200)
	for i := range rows {
		rows[i] = idRow(tab, fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i))
		if _, err := rel.InsertRow(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	absent := idRow(tab, "nope", "nope")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, row := range rows {
				if !rel.ContainsRow(row) {
					t.Error("stored row reported absent")
					return
				}
			}
			if rel.ContainsRow(absent) {
				t.Error("absent row reported present")
			}
		}()
	}
	wg.Wait()
}
