// Package autodiff extends computation graphs with reverse-mode
// gradient nodes. The paper's ByteDance workload is checked "for both
// the forward and the backward pass" (§6.1); this package produces
// those backward graphs mechanically, for the differentiable operator
// subset the backward workloads use, including the collective kernels
// (so distributed implementations can be differentiated too, the way
// torch.autograd differentiates through communication ops).
package autodiff

import (
	"fmt"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// Gradient clones g, appends backward nodes computing ∂loss/∂t for
// every t in wrt, marks those gradients (after the existing outputs)
// as graph outputs, and returns the extended graph with the
// wrt→gradient-tensor mapping. The seed ∂loss/∂loss is introduced as a
// new graph input named "<loss>.grad" (TorchDynamo similarly treats
// incoming grads as backward-graph inputs).
func Gradient(g *graph.Graph, loss graph.TensorID, wrt []graph.TensorID) (*graph.Graph, map[graph.TensorID]graph.TensorID, error) {
	bg := g.Clone()
	lossT := bg.Tensor(loss)

	seedName := lossT.Name + ".grad"
	seed, err := addInput(bg, seedName, lossT.Shape.Clone())
	if err != nil {
		return nil, nil, err
	}

	// adjoints accumulates gradient contributions per forward tensor.
	adjoints := map[graph.TensorID][]graph.TensorID{loss: {seed}}

	order, err := bg.TopoSort()
	if err != nil {
		return nil, nil, err
	}
	// Only forward nodes (the clone has no backward nodes yet).
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		dys := make([]graph.TensorID, len(n.Outputs))
		any := false
		for j, out := range n.Outputs {
			dy, ok, err := sumAdjoints(bg, adjoints[out], fmt.Sprintf("%s.grad_acc%d", n.Label, j))
			if err != nil {
				return nil, nil, err
			}
			if ok {
				dys[j] = dy
				any = true
			} else {
				dys[j] = -1
			}
		}
		if !any {
			continue // not on any path to the loss
		}
		if err := backprop(bg, n, dys, adjoints); err != nil {
			return nil, nil, err
		}
	}

	grads := make(map[graph.TensorID]graph.TensorID, len(wrt))
	for _, w := range wrt {
		dw, ok, err := sumAdjoints(bg, adjoints[w], bg.Tensor(w).Name+".grad_total")
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return nil, nil, fmt.Errorf("autodiff: %q does not influence the loss", bg.Tensor(w).Name)
		}
		grads[w] = dw
		bg.Outputs = append(bg.Outputs, dw)
	}
	if err := bg.Validate(); err != nil {
		return nil, nil, err
	}
	return bg, grads, nil
}

// addInput appends a graph input to an already-built graph.
func addInput(g *graph.Graph, name string, sh shape.Shape) (graph.TensorID, error) {
	if _, dup := g.TensorByName(name); dup {
		return 0, fmt.Errorf("autodiff: input %q already exists", name)
	}
	// Reuse Append's tensor plumbing via a direct identity trick is
	// not possible for inputs; construct the tensor by rebuilding.
	id := graph.TensorID(len(g.Tensors))
	t := &graph.Tensor{ID: id, Name: name, Shape: sh, Producer: graph.NoProducer}
	g.Tensors = append(g.Tensors, t)
	g.Inputs = append(g.Inputs, id)
	graph.RegisterTensorName(g, name, id)
	return id, nil
}

// sumAdjoints combines accumulated contributions into one tensor.
func sumAdjoints(g *graph.Graph, parts []graph.TensorID, label string) (graph.TensorID, bool, error) {
	switch len(parts) {
	case 0:
		return 0, false, nil
	case 1:
		return parts[0], true, nil
	}
	id, err := g.Append(expr.OpSum, label, label+".out", "", nil, parts...)
	if err != nil {
		return 0, false, err
	}
	return id, true, nil
}

func addTo(adjoints map[graph.TensorID][]graph.TensorID, t, grad graph.TensorID) {
	adjoints[t] = append(adjoints[t], grad)
}

// backprop appends the vector-Jacobian product nodes for one forward
// node; dys holds the output adjoints (-1 for unused outputs).
func backprop(g *graph.Graph, n *graph.Node, dys []graph.TensorID, adjoints map[graph.TensorID][]graph.TensorID) error {
	lbl := func(s string) string { return n.Label + ".bwd/" + s }
	app := func(op expr.Op, label, str string, ints []sym.Expr, in ...graph.TensorID) (graph.TensorID, error) {
		return g.Append(op, lbl(label), lbl(label)+".out", str, ints, in...)
	}
	dy := dys[0]

	switch n.Op {
	case expr.OpMatMul:
		// y = a·b → da = dy·bᵀ, db = aᵀ·dy (rank-2 operands).
		a, b := n.Inputs[0], n.Inputs[1]
		z, o := sym.Const(0), sym.Const(1)
		bt, err := app(expr.OpTranspose, "bT", "", []sym.Expr{z, o}, b)
		if err != nil {
			return err
		}
		da, err := app(expr.OpMatMul, "da", "", nil, dy, bt)
		if err != nil {
			return err
		}
		at, err := app(expr.OpTranspose, "aT", "", []sym.Expr{z, o}, a)
		if err != nil {
			return err
		}
		db, err := app(expr.OpMatMul, "db", "", nil, at, dy)
		if err != nil {
			return err
		}
		addTo(adjoints, a, da)
		addTo(adjoints, b, db)

	case expr.OpAdd:
		addTo(adjoints, n.Inputs[0], dy)
		addTo(adjoints, n.Inputs[1], dy)

	case expr.OpSub:
		addTo(adjoints, n.Inputs[0], dy)
		neg, err := app(expr.OpUnary, "neg", "neg", nil, dy)
		if err != nil {
			return err
		}
		addTo(adjoints, n.Inputs[1], neg)

	case expr.OpSum:
		for _, in := range n.Inputs {
			addTo(adjoints, in, dy)
		}

	case expr.OpMul:
		// y = a⊙b with optional size-1 broadcasting: the adjoint of a
		// broadcast operand reduce-sums over the broadcast dims.
		a, b := n.Inputs[0], n.Inputs[1]
		da, err := app(expr.OpMul, "da", "", nil, dy, b)
		if err != nil {
			return err
		}
		da, err = reduceToShape(g, da, g.Tensor(a).Shape, lbl("da_reduce"))
		if err != nil {
			return err
		}
		db, err := app(expr.OpMul, "db", "", nil, dy, a)
		if err != nil {
			return err
		}
		db, err = reduceToShape(g, db, g.Tensor(b).Shape, lbl("db_reduce"))
		if err != nil {
			return err
		}
		addTo(adjoints, a, da)
		addTo(adjoints, b, db)

	case expr.OpUnary:
		deriv := map[string]string{"silu": "dsilu", "gelu": "dgelu", "relu": "drelu", "tanh": "dtanh"}
		dname, ok := deriv[n.Str]
		if !ok {
			return fmt.Errorf("autodiff: unary %q has no derivative kernel", n.Str)
		}
		dfx, err := app(expr.OpUnary, "deriv", dname, nil, n.Inputs[0])
		if err != nil {
			return err
		}
		dx, err := app(expr.OpMul, "dx", "", nil, dy, dfx)
		if err != nil {
			return err
		}
		addTo(adjoints, n.Inputs[0], dx)

	case expr.OpScale:
		dx, err := app(expr.OpScale, "dx", "", n.Ints, dy)
		if err != nil {
			return err
		}
		addTo(adjoints, n.Inputs[0], dx)

	case expr.OpIdentity:
		addTo(adjoints, n.Inputs[0], dy)

	case expr.OpTranspose:
		dx, err := app(expr.OpTranspose, "dx", "", n.Ints, dy)
		if err != nil {
			return err
		}
		addTo(adjoints, n.Inputs[0], dx)

	case expr.OpConcat:
		d := n.Ints[0]
		off := sym.Const(0)
		for i, in := range n.Inputs {
			di, err := shape.DimIndex(d, len(g.Tensor(in).Shape))
			if err != nil {
				return err
			}
			ext := g.Tensor(in).Shape[di]
			dx, err := app(expr.OpSlice, fmt.Sprintf("dx%d", i), "",
				[]sym.Expr{d, off, off.Add(ext)}, dy)
			if err != nil {
				return err
			}
			addTo(adjoints, in, dx)
			off = off.Add(ext)
		}

	case expr.OpSlice:
		d, b, e := n.Ints[0], n.Ints[1], n.Ints[2]
		in := n.Inputs[0]
		di, err := shape.DimIndex(d, len(g.Tensor(in).Shape))
		if err != nil {
			return err
		}
		ext := g.Tensor(in).Shape[di]
		dx, err := app(expr.OpPad, "dx", "", []sym.Expr{d, b, ext.Sub(e)}, dy)
		if err != nil {
			return err
		}
		addTo(adjoints, in, dx)

	case expr.OpPad:
		d, bf := n.Ints[0], n.Ints[1]
		in := n.Inputs[0]
		di, err := shape.DimIndex(d, len(g.Tensor(in).Shape))
		if err != nil {
			return err
		}
		ext := g.Tensor(in).Shape[di]
		dx, err := app(expr.OpSlice, "dx", "", []sym.Expr{d, bf, bf.Add(ext)}, dy)
		if err != nil {
			return err
		}
		addTo(adjoints, in, dx)

	case expr.OpSquaredError:
		// L = Σ(p-t)² → dp = 2·(p-t)·dy (dy is [1], broadcast via a
		// rank-matched reshape), dt = -dp.
		return lossBackprop(g, n, dy, adjoints, 2, 1)

	case expr.OpMSELoss:
		// L = Σ(p-t)²/N → dp = 2/N·(p-t)·dy.
		numel := int64(1)
		for _, d := range g.Tensor(n.Inputs[0]).Shape {
			v, ok := d.IsConst()
			if !ok {
				return fmt.Errorf("autodiff: mse over symbolic extents unsupported")
			}
			numel *= v
		}
		return lossBackprop(g, n, dy, adjoints, 2, numel)

	case expr.OpAllReduce:
		// y_i = Σ_j x_j → dx_j = Σ_i dy_i for every j.
		got := presentGrads(dys)
		if len(got) == 0 {
			return nil
		}
		total, _, err := sumAdjoints(g, got, lbl("dy_total"))
		if err != nil {
			return err
		}
		for _, in := range n.Inputs {
			addTo(adjoints, in, total)
		}

	case expr.OpAllGather:
		// y_i = concat(x, d) → dx_j = Σ_i slice_j(dy_i).
		d := n.Ints[0]
		off := sym.Const(0)
		for j, in := range n.Inputs {
			di, err := shape.DimIndex(d, len(g.Tensor(in).Shape))
			if err != nil {
				return err
			}
			ext := g.Tensor(in).Shape[di]
			var parts []graph.TensorID
			for i, dyI := range dys {
				if dyI < 0 {
					continue
				}
				sl, err := app(expr.OpSlice, fmt.Sprintf("dx%d_from%d", j, i), "",
					[]sym.Expr{d, off, off.Add(ext)}, dyI)
				if err != nil {
					return err
				}
				parts = append(parts, sl)
			}
			if len(parts) > 0 {
				dx, _, err := sumAdjoints(g, parts, lbl(fmt.Sprintf("dx%d", j)))
				if err != nil {
					return err
				}
				addTo(adjoints, in, dx)
			}
			off = off.Add(ext)
		}

	case expr.OpReduceScatter:
		// y_i = slice_i(Σ_j x_j, d) → dx_j = concat_i(dy_i, d).
		for _, dyI := range dys {
			if dyI < 0 {
				return fmt.Errorf("autodiff: reducescatter %q needs all output grads", n.Label)
			}
		}
		dx, err := app(expr.OpConcat, "dx", "", []sym.Expr{n.Ints[0]}, dys...)
		if err != nil {
			return err
		}
		for _, in := range n.Inputs {
			addTo(adjoints, in, dx)
		}

	default:
		return fmt.Errorf("autodiff: no gradient rule for %q (node %q)", n.Op, n.Label)
	}
	return nil
}

func presentGrads(dys []graph.TensorID) []graph.TensorID {
	var out []graph.TensorID
	for _, d := range dys {
		if d >= 0 {
			out = append(out, d)
		}
	}
	return out
}

// lossBackprop handles the two pointwise losses: dpred =
// num/den · (pred-target) ⊙ broadcast(dy).
func lossBackprop(g *graph.Graph, n *graph.Node, dy graph.TensorID,
	adjoints map[graph.TensorID][]graph.TensorID, num, den int64) error {
	lbl := func(s string) string { return n.Label + ".bwd/" + s }
	pred, target := n.Inputs[0], n.Inputs[1]
	diff, err := g.Append(expr.OpSub, lbl("diff"), lbl("diff")+".out", "", nil, pred, target)
	if err != nil {
		return err
	}
	scaled, err := g.Append(expr.OpScale, lbl("scaled"), lbl("scaled")+".out", "",
		[]sym.Expr{sym.Const(num), sym.Const(den)}, diff)
	if err != nil {
		return err
	}
	// Broadcast dy ([1]) against the prediction by reshaping to a
	// rank-matched all-ones shape.
	rank := len(g.Tensor(pred).Shape)
	ones := make([]sym.Expr, rank)
	for i := range ones {
		ones[i] = sym.Const(1)
	}
	dyR, err := g.Append(expr.OpReshape, lbl("dy_reshape"), lbl("dy_reshape")+".out", "", ones, dy)
	if err != nil {
		return err
	}
	dp, err := g.Append(expr.OpMul, lbl("dpred"), lbl("dpred")+".out", "", nil, dyR, scaled)
	if err != nil {
		return err
	}
	dt, err := g.Append(expr.OpUnary, lbl("dtarget"), lbl("dtarget")+".out", "neg", nil, dp)
	if err != nil {
		return err
	}
	addTo(adjoints, pred, dp)
	addTo(adjoints, target, dt)
	return nil
}

// reduceToShape reduce-sums grad over any dimension where want has
// extent 1 but grad does not (undoing broadcasting).
func reduceToShape(g *graph.Graph, grad graph.TensorID, want shape.Shape, label string) (graph.TensorID, error) {
	cur := grad
	for d := 0; d < len(want); d++ {
		wv, wOK := want[d].IsConst()
		gv, gOK := g.Tensor(cur).Shape[d].IsConst()
		if wOK && gOK && wv == 1 && gv != 1 {
			id, err := g.Append(expr.OpReduceSum, fmt.Sprintf("%s/d%d", label, d),
				fmt.Sprintf("%s/d%d.out", label, d), "", []sym.Expr{sym.Const(int64(d))}, cur)
			if err != nil {
				return 0, err
			}
			cur = id
		}
	}
	return cur, nil
}
