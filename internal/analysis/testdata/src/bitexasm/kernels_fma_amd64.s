#include "textflag.h"

// dotFma carries a fused mnemonic in an fma-named file: flagged all the
// same, the file name exempts nothing.
TEXT ·dotFma(SB), NOSPLIT, $0-16
	VFMADD231PD Y1, Y2, Y0
	VZEROUPPER
	RET
