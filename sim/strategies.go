package sim

import (
	"github.com/tcppuzzles/tcppuzzles/attack"
	"github.com/tcppuzzles/tcppuzzles/defense"
)

// DefenseInfo identifies a registered server-protection plugin.
type DefenseInfo = defense.Info

// AttackInfo identifies a registered flood-strategy plugin.
type AttackInfo = attack.Info

// DefenseInfos lists every registered defense plugin, sorted by name —
// the registry behind Scenario.Defense, the sweep Defenses axis, and
// `tcpz-exp -list-defenses`. Register new defenses with defense.Register;
// they become sweepable scenario coordinates, keyed in the result cache by
// name like every Scenario field, without any change to the simulator core.
func DefenseInfos() []DefenseInfo { return defense.Infos() }

// AttackInfos lists every registered attack plugin, sorted by name — the
// registry behind Scenario.Attack, the sweep Attacks axis, and
// `tcpz-exp -list-attacks`.
func AttackInfos() []AttackInfo { return attack.Infos() }
