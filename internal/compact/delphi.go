package compact

import (
	"context"
	"fmt"

	"aeropack/internal/thermal"
	"aeropack/internal/units"
)

// DelphiModel is a DELPHI-style multi-node compact thermal model: a star
// network from the junction to distinct top, bottom and lead surface
// nodes plus a direct top–bottom shunt.  Unlike the two-resistor model it
// aims at boundary-condition independence (BCI): one resistor set that
// stays accurate whether the package is cooled from the top, the board,
// or both — the property the DELPHI project defined and the paper's
// "Thales internal models database" packages provide.
type DelphiModel struct {
	Name string
	// Star resistances from the junction, K/W.
	RJTop    float64
	RJBottom float64
	RJLead   float64
	// RShunt couples top and bottom directly (moulding path), K/W.
	RShunt float64
	// Surface areas for film attachment, m².
	TopArea    float64
	BottomArea float64
	LeadArea   float64
	MaxTj      float64
}

// Validate checks the model.
func (d *DelphiModel) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("compact: delphi model needs a name")
	}
	if d.RJTop <= 0 || d.RJBottom <= 0 || d.RJLead <= 0 || d.RShunt <= 0 {
		return fmt.Errorf("compact: delphi resistances must be positive")
	}
	if d.TopArea <= 0 || d.BottomArea <= 0 || d.LeadArea <= 0 {
		return fmt.Errorf("compact: delphi areas must be positive")
	}
	return nil
}

// delphiLibrary holds multi-node models for the packages whose two-
// resistor entries live in the main library.  Resistances follow the
// usual DELPHI-fit pattern: a stiff bottom path (balls/pad), a moderate
// top path (mould + die attach) and a weak lead path.
var delphiLibrary = map[string]DelphiModel{
	"BGA256": {
		Name: "BGA256", RJTop: 5.2, RJBottom: 8.5, RJLead: 60, RShunt: 35,
		TopArea: 17e-3 * 17e-3, BottomArea: 17e-3 * 17e-3, LeadArea: 2e-5,
		MaxTj: 398.15,
	},
	"QFP208": {
		Name: "QFP208", RJTop: 7.0, RJBottom: 14, RJLead: 22, RShunt: 40,
		TopArea: 28e-3 * 28e-3, BottomArea: 28e-3 * 28e-3, LeadArea: 6e-5,
		MaxTj: 398.15,
	},
	"FCBGA-CPU": {
		Name: "FCBGA-CPU", RJTop: 0.4, RJBottom: 5.5, RJLead: 80, RShunt: 25,
		TopArea: 35e-3 * 35e-3, BottomArea: 35e-3 * 35e-3, LeadArea: 4e-5,
		MaxTj: 398.15,
	},
}

// GetDelphi returns the multi-node model for a package.
func GetDelphi(name string) (DelphiModel, error) {
	d, ok := delphiLibrary[name]
	if !ok {
		return DelphiModel{}, fmt.Errorf("compact: no DELPHI model for %q", name)
	}
	return d, nil
}

// DelphiNames lists packages with multi-node models.
func DelphiNames() []string {
	out := make([]string, 0, len(delphiLibrary))
	for n := range delphiLibrary {
		out = append(out, n)
	}
	return out
}

// Attach wires the model into a network for a component refdes: power at
// the junction; the top node couples to topEnv through hTop; the bottom
// and lead nodes couple to boardNode through the given interface films
// (hBottom over BottomArea for the ball/pad field, leads direct).
func (d *DelphiModel) Attach(n *thermal.Network, refdes, boardNode, topEnv string, power, hTop, hBottom float64) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if power < 0 {
		return fmt.Errorf("compact: negative power for %s", refdes)
	}
	j := refdes + ".j"
	top := refdes + ".top"
	bot := refdes + ".bot"
	lead := refdes + ".lead"
	if err := n.AddResistor(j, top, d.RJTop); err != nil {
		return err
	}
	if err := n.AddResistor(j, bot, d.RJBottom); err != nil {
		return err
	}
	if err := n.AddResistor(j, lead, d.RJLead); err != nil {
		return err
	}
	if err := n.AddResistor(top, bot, d.RShunt); err != nil {
		return err
	}
	if hTop > 0 {
		if err := n.AddResistor(top, topEnv, 1/(hTop*d.TopArea)); err != nil {
			return err
		}
	}
	if hBottom > 0 {
		if err := n.AddResistor(bot, boardNode, 1/(hBottom*d.BottomArea)); err != nil {
			return err
		}
	} else {
		// Direct solder attach.
		if err := n.AddResistor(bot, boardNode, 0.5); err != nil {
			return err
		}
	}
	if err := n.AddResistor(lead, boardNode, 0.2); err != nil {
		return err
	}
	n.AddSource(j, power)
	return nil
}

// Environment describes one BCI evaluation condition.
type Environment struct {
	Name    string
	HTop    float64 // W/m²K on the package top
	HBottom float64 // W/m²K equivalent through the ball field to the board
	BoardC  float64 // board temperature, °C
	AirC    float64 // top-side air temperature, °C
}

// JunctionDelphi solves the multi-node model in one environment under
// ctx's budget.
func (d *DelphiModel) JunctionDelphi(ctx context.Context, env Environment, power float64) (float64, error) {
	n := thermal.NewNetwork()
	n.FixT("board", units.CToK(env.BoardC))
	n.FixT("air", units.CToK(env.AirC))
	if err := d.Attach(n, "U", "board", "air", power, env.HTop, env.HBottom); err != nil {
		return 0, err
	}
	res, err := n.SolveSteady(ctx)
	if err != nil {
		return 0, err
	}
	return res.T["U.j"], nil
}

// BCIResult compares compact models across environments.
type BCIResult struct {
	Environments []string
	// TjDelphi and TjTwoR are junction temperatures (K) per environment.
	TjDelphi []float64
	TjTwoR   []float64
	// Spread is max−min junction prediction difference between the two
	// model classes per environment, K.
	Spread []float64
	// MaxSpreadK is the worst disagreement.
	MaxSpreadK float64
}

// BCIStudy evaluates the DELPHI and two-resistor models of a package over
// an environment set, quantifying how far the simpler model drifts — the
// boundary-condition-independence experiment from the DELPHI project,
// reproduced on this library's models.  ctx budgets every solve.
func BCIStudy(ctx context.Context, pkgName string, power float64, envs []Environment) (*BCIResult, error) {
	if power <= 0 || len(envs) == 0 {
		return nil, fmt.Errorf("compact: BCI study needs power and environments")
	}
	d, err := GetDelphi(pkgName)
	if err != nil {
		return nil, err
	}
	p, err := Get(pkgName)
	if err != nil {
		return nil, err
	}
	out := &BCIResult{}
	for _, env := range envs {
		tjD, err := d.JunctionDelphi(ctx, env, power)
		if err != nil {
			return nil, err
		}
		// Two-resistor in the same environment.
		n := thermal.NewNetwork()
		n.FixT("board", units.CToK(env.BoardC))
		n.FixT("air", units.CToK(env.AirC))
		c := &Component{RefDes: "U", Pkg: p, Power: power}
		if err := c.Attach(n, "board", "air", env.HTop); err != nil {
			return nil, err
		}
		res, err := n.SolveSteady(ctx)
		if err != nil {
			return nil, err
		}
		tj2 := res.T[c.JunctionNode()]
		spread := tjD - tj2
		if spread < 0 {
			spread = -spread
		}
		out.Environments = append(out.Environments, env.Name)
		out.TjDelphi = append(out.TjDelphi, tjD)
		out.TjTwoR = append(out.TjTwoR, tj2)
		out.Spread = append(out.Spread, spread)
		if spread > out.MaxSpreadK {
			out.MaxSpreadK = spread
		}
	}
	return out, nil
}

// StandardBCIEnvironments returns the canonical DELPHI evaluation set:
// board-dominated, top-dominated, balanced, and hostile-board conditions.
func StandardBCIEnvironments() []Environment {
	return []Environment{
		{Name: "still-air/cold-board", HTop: 8, HBottom: 3000, BoardC: 50, AirC: 50},
		{Name: "forced-air/cold-board", HTop: 60, HBottom: 3000, BoardC: 50, AirC: 45},
		{Name: "heatsink-top/hot-board", HTop: 500, HBottom: 3000, BoardC: 90, AirC: 40},
		{Name: "conduction-only", HTop: 0, HBottom: 3000, BoardC: 60, AirC: 60},
	}
}
