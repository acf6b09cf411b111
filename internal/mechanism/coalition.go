package mechanism

import (
	"fmt"
)

// CoalitionViolation records a profitable joint deviation by a
// coalition of any size — the object Definition 1's k-agent
// strategyproofness quantifies over.
type CoalitionViolation struct {
	Members    []int
	Decls      []float64
	TruthJoint float64
	LieJoint   float64
}

func (v CoalitionViolation) String() string {
	return fmt.Sprintf("coalition %v: declaring %v raises joint utility %g -> %g",
		v.Members, v.Decls, v.TruthJoint, v.LieJoint)
}
