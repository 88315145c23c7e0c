package view

// Temporal presentation: the detected-phase view. Like the other views,
// the JSON writer here is the single serializer — `dcview -phases -json`
// and dcprofd's GET /collections/{name}/phases both render through
// WritePhasesJSON, so offline and served output stay byte-identical.
// Window-restricted profiles (dcview -window, server ?window=) need no
// serializer of their own: a clipped profile is an ordinary cct.Profile
// and flows through the top-down/bottom-up writers above.

import (
	"fmt"
	"io"
	"strings"

	"dcprof/internal/temporal"
)

// WritePhasesJSON writes the detected phases as indented JSON: the event,
// the window width in sim cycles (phase boundaries are multiples of it),
// and the phases in time order, which tile the sampled span; "phases" is
// always an array.
func WritePhasesJSON(w io.Writer, event string, width uint64, phases []temporal.Phase) error {
	j := newJSONWriter(w)
	j.str("event", event)
	j.uint("window_width", width)
	j.open("phases", '[')
	for _, ph := range phases {
		j.open("", '{')
		j.uint("start", ph.Start)
		j.uint("end", ph.End)
		j.uint("start_window", ph.StartWindow)
		j.uint("end_window", ph.EndWindow)
		j.str("label", ph.Label)
		j.uint("samples", ph.Samples)
		j.close('}')
	}
	j.close(']')
	return j.end()
}

// RenderPhases formats the detected phases as a table.
func RenderPhases(event string, width uint64, phases []temporal.Phase) string {
	var b strings.Builder
	fmt.Fprintf(&b, "execution phases — event %s, window %d cycles\n", event, width)
	if len(phases) == 0 {
		b.WriteString("(no phases detected)\n")
		return b.String()
	}
	for i, ph := range phases {
		fmt.Fprintf(&b, "%2d. cycles [%d, %d)  windows %d-%d  %-12s %d samples\n",
			i+1, ph.Start, ph.End, ph.StartWindow, ph.EndWindow, ph.Label, ph.Samples)
	}
	return b.String()
}
