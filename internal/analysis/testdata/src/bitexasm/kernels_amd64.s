#include "textflag.h"

// dotAsm carries a fused mnemonic: flagged.
TEXT ·dotAsm(SB), NOSPLIT, $0-16
	VFMADD231PD Y1, Y2, Y0
	VZEROUPPER
	RET

// orphanAsm has no Go stub declaration: flagged (at the package clause,
// since an .s line has no token position).
TEXT ·orphanAsm(SB), NOSPLIT, $0-16
	VMULPD Y1, Y2, Y0
	VZEROUPPER
	RET

// deadAsm pairs with an uncalled stub: the stub site is flagged.
TEXT ·deadAsm(SB), NOSPLIT, $0-16
	RET
