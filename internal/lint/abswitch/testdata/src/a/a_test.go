package a

import "testing"

var identityCases = []Config{{DisableVar: true}}

func determConfigs() []Config {
	return []Config{{DisableHelper: true}}
}

func TestBitIdenticalSwitches(t *testing.T) {
	c := Config{DisableDirect: true}
	_ = c
	_ = identityCases
	_ = determConfigs()
}

func TestOther(t *testing.T) {
	c := Config{DisableWrongTest: true}
	_ = c
}
