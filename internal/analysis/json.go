package analysis

// JSON export: hpcviewer consumes HPCToolkit's XML database; our text views
// play that role, and this export gives external tooling (scripts,
// notebooks, web viewers) the same merged database in a stable JSON shape.

import (
	"encoding/json"
	"io"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// JSONNode is one CCT node in the export.
type JSONNode struct {
	// Kind is the frame kind ("call", "stmt", "static-var", ...).
	Kind string `json:"kind"`
	// Name, Module, File, Line identify the frame (omitted when empty).
	Name   string `json:"name,omitempty"`
	Module string `json:"module,omitempty"`
	File   string `json:"file,omitempty"`
	Line   int    `json:"line,omitempty"`
	// Metrics holds the node's non-zero exclusive metrics by name.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
	// Children are the node's children in deterministic order.
	Children []*JSONNode `json:"children,omitempty"`
}

// JSONDatabase is the top-level export document.
type JSONDatabase struct {
	// Event is the monitored-event description.
	Event string `json:"event"`
	// Ranks and Threads count the merged sources.
	Ranks   int `json:"ranks"`
	Threads int `json:"threads"`
	// Classes maps storage-class names to their CCT roots.
	Classes map[string]*JSONNode `json:"classes"`
}

// ToJSON converts a database to its export form.
func ToJSON(db *Database) *JSONDatabase {
	out := &JSONDatabase{
		Event:   db.Event,
		Ranks:   db.Ranks,
		Threads: db.Threads,
		Classes: map[string]*JSONNode{},
	}
	for c, tree := range db.Merged.Trees {
		out.Classes[cct.Class(c).String()] = convertNode(tree.Root)
	}
	return out
}

func convertNode(n *cct.Node) *JSONNode {
	f := n.Frame()
	j := &JSONNode{
		Kind:   f.Kind.String(),
		Name:   f.Name,
		Module: f.Module,
		File:   f.File,
		Line:   f.Line,
	}
	for i, v := range n.Metrics() {
		if v != 0 {
			if j.Metrics == nil {
				j.Metrics = map[string]uint64{}
			}
			j.Metrics[metric.ID(i).Name()] = v
		}
	}
	for _, c := range n.Children() {
		j.Children = append(j.Children, convertNode(c))
	}
	return j
}

// WriteJSON streams the database as indented JSON.
func WriteJSON(w io.Writer, db *Database) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToJSON(db))
}
