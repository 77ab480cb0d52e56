package archive

import (
	"repro/internal/opm"
	"repro/internal/provenance"
)

// RunRecorder is the slice of the provenance repository the auditor needs:
// the ability to persist one complete audit run.
type RunRecorder interface {
	Store(info provenance.RunInfo, g *opm.Graph) error
}
