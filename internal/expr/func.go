package expr

import (
	"fmt"
	"strconv"
	"strings"

	"hybridwh/internal/types"
)

// Func is a scalar function callable from expressions. The registry carries
// the functions used by the paper's queries: days(), region(), extract_group()
// and url_prefix(). Both engines share the registry, mirroring how the paper
// implements these as UDFs on the DB2 side and as built-ins in JEN.
type Func struct {
	Name   string
	Arity  int
	Result types.Kind
	// Apply must not keep args past its return: Call.Eval lends it a
	// pooled slice.
	Apply func(args []types.Value) (types.Value, error)
	// Batch, when set, is the vectorized form: args holds one evaluated
	// column per argument, and the function appends one result per row to
	// out. It must agree with Apply value-for-value — the batch kernels in
	// internal/expr use it to skip the per-row argument copy and indirect
	// call on hot paths (the post-join predicate sees every joined row).
	Batch func(args [][]types.Value, out []types.Value) ([]types.Value, error)
}

// Registry maps function names (case-insensitive) to implementations.
type Registry struct {
	funcs map[string]*Func
}

// NewRegistry returns a registry pre-populated with the built-in functions.
func NewRegistry() *Registry {
	r := &Registry{funcs: map[string]*Func{}}
	for _, f := range builtins() {
		r.Register(f)
	}
	return r
}

// Register adds or replaces a function.
func (r *Registry) Register(f *Func) { r.funcs[strings.ToLower(f.Name)] = f }

// Lookup finds a function by name.
func (r *Registry) Lookup(name string) (*Func, error) {
	f, ok := r.funcs[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("unknown function %q", name)
	}
	return f, nil
}

// Names returns the registered function names (unordered).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		out = append(out, n)
	}
	return out
}

// Call invokes a registered function over argument expressions.
type Call struct {
	Fn   *Func
	Name string
	Args []Expr
}

// NewCall builds a call node, validating arity.
func NewCall(fn *Func, args ...Expr) (*Call, error) {
	if fn.Arity >= 0 && len(args) != fn.Arity {
		return nil, fmt.Errorf("%s expects %d arguments, got %d", fn.Name, fn.Arity, len(args))
	}
	return &Call{Fn: fn, Name: fn.Name, Args: args}, nil
}

// Eval implements Expr. The argument slice is borrowed from valBufPool, not
// allocated per call and not kept on the node: one expression tree is
// evaluated by several probe threads at once.
func (c *Call) Eval(row types.Row) (types.Value, error) {
	p := valBufPool.Get().(*[]types.Value)
	defer valBufPool.Put(p)
	vals := (*p)[:0]
	for _, a := range c.Args {
		v, err := a.Eval(row)
		if err != nil {
			return types.Null, err
		}
		vals = append(vals, v)
	}
	*p = vals[:0] // keep any growth for the next borrower
	return c.Fn.Apply(vals)
}

// Kind implements Expr.
func (c *Call) Kind() types.Kind { return c.Fn.Result }

// Cols implements Expr.
func (c *Call) Cols(dst []int) []int {
	for _, a := range c.Args {
		dst = a.Cols(dst)
	}
	return dst
}

// String implements Expr.
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(parts, ", "))
}

func builtins() []*Func {
	return []*Func{
		{
			// days(d) — days since the epoch, as in the example query's
			// days(T.tdate)-days(L.ldate).
			Name: "days", Arity: 1, Result: types.KindInt64,
			Apply: func(a []types.Value) (types.Value, error) {
				if a[0].IsNull() {
					return types.Null, nil
				}
				if a[0].K != types.KindDate {
					return types.Null, fmt.Errorf("days: want date, got %s", a[0].K)
				}
				return types.Int64(a[0].I), nil
			},
			Batch: func(args [][]types.Value, out []types.Value) ([]types.Value, error) {
				for _, v := range args[0] {
					switch v.K {
					case types.KindNull:
						out = append(out, types.Null)
					case types.KindDate:
						out = append(out, types.Int64(v.I))
					default:
						return out, fmt.Errorf("days: want date, got %s", v.K)
					}
				}
				return out, nil
			},
		},
		{
			// region(ip) — maps a dotted-quad IP to a coarse US region by
			// first octet; the paper's click-log predicate is
			// region(L.ip)='East Coast'.
			Name: "region", Arity: 1, Result: types.KindString,
			Apply: func(a []types.Value) (types.Value, error) {
				if a[0].K != types.KindString {
					return types.Null, fmt.Errorf("region: want string, got %s", a[0].K)
				}
				dot := strings.IndexByte(a[0].S, '.')
				if dot < 0 {
					return types.String("Unknown"), nil
				}
				octet, err := strconv.Atoi(a[0].S[:dot])
				if err != nil || octet < 0 || octet > 255 {
					return types.String("Unknown"), nil
				}
				switch {
				case octet < 64:
					return types.String("East Coast"), nil
				case octet < 128:
					return types.String("Central"), nil
				case octet < 192:
					return types.String("Mountain"), nil
				default:
					return types.String("West Coast"), nil
				}
			},
		},
		{
			// extract_group(s) — extracts the integer group id from the
			// synthetic groupByExtractCol ("grp-00042/..."), the paper's
			// group-by UDF.
			Name: "extract_group", Arity: 1, Result: types.KindInt64,
			Apply: func(a []types.Value) (types.Value, error) {
				if a[0].K != types.KindString {
					return types.Null, fmt.Errorf("extract_group: want string, got %s", a[0].K)
				}
				s := a[0].S
				i := strings.IndexByte(s, '-')
				if i < 0 {
					return types.Null, fmt.Errorf("extract_group: malformed %q", s)
				}
				j := i + 1
				for j < len(s) && s[j] >= '0' && s[j] <= '9' {
					j++
				}
				n, err := strconv.ParseInt(s[i+1:j], 10, 64)
				if err != nil {
					return types.Null, fmt.Errorf("extract_group: malformed %q", s)
				}
				return types.Int64(n), nil
			},
			Batch: func(args [][]types.Value, out []types.Value) ([]types.Value, error) {
				for _, v := range args[0] {
					if v.K != types.KindString {
						return out, fmt.Errorf("extract_group: want string, got %s", v.K)
					}
					s := v.S
					i := strings.IndexByte(s, '-')
					if i < 0 {
						return out, fmt.Errorf("extract_group: malformed %q", s)
					}
					// Inline digit parse: the group id is a short decimal run
					// right after the dash.
					var n int64
					j := i + 1
					for ; j < len(s) && s[j] >= '0' && s[j] <= '9'; j++ {
						n = n*10 + int64(s[j]-'0')
					}
					if j-i-1 > 18 {
						// Possible overflow: defer to the scalar parser so
						// batch and row agree on the boundary cases.
						p, err := strconv.ParseInt(s[i+1:j], 10, 64)
						if err != nil {
							return out, fmt.Errorf("extract_group: malformed %q", s)
						}
						n = p
					} else if j == i+1 {
						return out, fmt.Errorf("extract_group: malformed %q", s)
					}
					out = append(out, types.Int64(n))
				}
				return out, nil
			},
		},
		{
			// url_prefix(url) — the host+first path segment of a URL, the
			// grouping column of the Section 2 query.
			Name: "url_prefix", Arity: 1, Result: types.KindString,
			Apply: func(a []types.Value) (types.Value, error) {
				if a[0].K != types.KindString {
					return types.Null, fmt.Errorf("url_prefix: want string, got %s", a[0].K)
				}
				s := a[0].S
				s = strings.TrimPrefix(s, "http://")
				s = strings.TrimPrefix(s, "https://")
				if i := strings.IndexByte(s, '/'); i >= 0 {
					if j := strings.IndexByte(s[i+1:], '/'); j >= 0 {
						s = s[:i+1+j]
					}
				}
				return types.String(s), nil
			},
		},
		{
			// abs(n) — convenience for ad-hoc queries.
			Name: "abs", Arity: 1, Result: types.KindInt64,
			Apply: func(a []types.Value) (types.Value, error) {
				switch a[0].K {
				case types.KindInt32, types.KindInt64:
					v := a[0].I
					if v < 0 {
						v = -v
					}
					return types.Int64(v), nil
				case types.KindFloat64:
					f := a[0].Float()
					if f < 0 {
						f = -f
					}
					return types.Float64(f), nil
				case types.KindNull:
					return types.Null, nil
				default:
					return types.Null, fmt.Errorf("abs: want numeric, got %s", a[0].K)
				}
			},
		},
	}
}
