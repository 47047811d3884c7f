package lp

// Generators of this package's tests, exported to the external test
// package that pins the kernel against testdata/lp_fixture.txt.
var (
	RandomMixedLP       = randomMixedLP
	RandomFixedBinaryLP = randomFixedBinaryLP
	RandomLP            = randomLP
	Branchy             = branchy
)
