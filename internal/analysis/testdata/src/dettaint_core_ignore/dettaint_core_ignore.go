// Package dettaintcoreignore is a morclint fixture: allowlisted false
// positives and malformed ignore comments for dettaint's source rule.
package dettaintcoreignore

import "math/rand"

func trailingIgnore() int {
	return rand.Intn(4) //morclint:ignore dettaint fixture exercises the trailing allowlist form
}

func ignoreOnLineAbove() int {
	//morclint:ignore dettaint a comment alone on the line above covers the next line
	return rand.Intn(4)
}

func ignoreList() int {
	return rand.Intn(4) //morclint:ignore dettaint,lockhold a comma-separated pass list is accepted
}

func ignoreAll() int {
	return rand.Intn(4) //morclint:ignore all the wildcard suppresses every pass
}

func ignoreSpacedList() int {
	return rand.Intn(4) //morclint:ignore dettaint, lockhold a space after the comma still reads as one list
}

func ignoreAllPlusNamed() int {
	return rand.Intn(4) //morclint:ignore all,dettaint the wildcard swallows the named pass
}

func multilineStatement() int {
	//morclint:ignore dettaint the line-above form covers only the statement's first line
	return rand.Intn(4) +
		rand.Intn(8) // want "rand.Intn uses math/rand's global generator"
}

func malformedIgnore() int {
	/* want "malformed ignore comment" */ //morclint:ignore dettaint
	return rand.Intn(4) // want "rand.Intn uses math/rand's global generator"
}

func reasonlessList() int {
	/* want "malformed ignore comment" */ //morclint:ignore dettaint, lockhold
	return rand.Intn(4) // want "rand.Intn uses math/rand's global generator"
}

func misspelledPass() int {
	/* want "malformed ignore comment" */ //morclint:ignore detaint a pass name that names no pass suppresses nothing
	return rand.Intn(4) // want "rand.Intn uses math/rand's global generator"
}
