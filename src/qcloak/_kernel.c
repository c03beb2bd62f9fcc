/* Compiled propagation kernel: C twin of qcloak._kernel_py.
 *
 * Same contract and numerics as the pure-Python module; see its docstring.
 * The numerics are plain C99 and repeat the twin's operations in the same
 * order, so the two agree bit for bit.  The CPython glue at the end converts
 * the arguments, runs the march with the GIL released and returns a
 * qcloak._kernel_py.KernelResult.  There are two entries, as in the twin.
 * `propagate` marches and keeps nothing per shell: the library matches at
 * the outer boundary only.  With keep_steps it writes one row per substep
 * into the bytes of a qcloak._kernel_py.Steps, and `sample` evaluates v at
 * sorted radii from those rows (sample_rows); the march itself takes no
 * samples.
 * want_norms takes the twin's values: False, True, or its CORE_ONLY (read
 * from the twin at import), which integrates v^2 only inside R_CORE.
 * The march starts on the regular solution, as the twin's does: the first
 * substep is the regular member alone (local_regular), and the irregular
 * term B G enters local_eval only where B != 0.
 *
 * Build in place with `python setup.py build_ext --inplace`.  setup.py
 * defines QCLOAK_SOURCE_CRC32, the CRC-32 of this file as 8 hex digits, and
 * the module exposes it as SOURCE_CRC32: qcloak.propagate uses the module
 * only when it matches the _kernel.c beside it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#ifndef QCLOAK_SOURCE_CRC32
#define QCLOAK_SOURCE_CRC32 ""      /* built without setup.py: unknown */
#endif

/* max |k| * (substep width); bounds both the e^(+-2) evanescent growth per
 * substep and the quadrature phase per panel */
static const double PHASE_CAP = 2.0;
static const double R_CORE = 1.0;            /* outer radius of i_core */
static const double POWER_RATIO_CAP = 1.25;  /* max b/a per power substep */
static const double EPS_ORIGIN = 1e-6;       /* first substep's start */
static const double NORM_CEIL = 1e250;
static const double NORM_SHIFT = 100.0 * 2.302585092994045684;
static const double RENORM = 1e250;
/* doubles per step-table row: (end, kind, k, a, A, B, lam), the twin's
 * STEP_COLS */
#define STEP_COLS 7

static const double G8N[8] = {
    -0.9602898564975363, -0.7966664774136267, -0.5255324099163290,
    -0.1834346424956498, 0.1834346424956498, 0.5255324099163290,
    0.7966664774136267, 0.9602898564975363,
};
static const double G8W[8] = {
    0.1012285362903763, 0.2223810344533745, 0.3137066458778873,
    0.3626837833783620, 0.3626837833783620, 0.3137066458778873,
    0.2223810344533745, 0.1012285362903763,
};

/* Miller's downward recurrence f_{n-1} = (2n+1)/x f_n + s f_{n+1} from
 * f_{n_start} = 1e-40, f_{n_start+1} = 0, rescaled only against overflow;
 * out = (f_{l-1}, f_l, f_1, f_0), unnormalised.  s = -1 gives j_l, s = +1
 * the scaled i_l. */
static void miller(int l, double x, int n_start, double s, double *out)
{
    double fp = 0.0, f = 1e-40, fm, target = 0.0, target_m = 0.0;
    int n;
    for (n = n_start; n > 0; n--) {
        fm = (2 * n + 1) / x * f + s * fp;
        fp = f; f = fm;
        if (n - 1 == l)
            target = f;
        if (n == l)
            target_m = f;
        if (fabs(f) > RENORM) {
            f /= RENORM; fp /= RENORM;
            target /= RENORM; target_m /= RENORM;
        }
    }
    out[0] = target_m;
    out[1] = target;
    out[2] = fp;
    out[3] = f;
}

/* out = (j_{l-1}, j_l, y_{l-1}, y_l); j_{-1} = cos/x, y_{-1} = sin/x */
static void jy_pair(int l, double x, double *out)
{
    double sx = sin(x), cx = cos(x);
    double j0 = sx / x, y0 = -cx / x, jm, j, ym, y, fm, f[4], scale;
    int n;
    if (l == 0) {
        out[0] = cx / x; out[1] = j0; out[2] = sx / x; out[3] = y0;
        return;
    }
    /* y_l: upward recurrence is stable for all x */
    ym = y0; y = -cx / (x * x) - sx / x;
    for (n = 1; n < l; n++) {
        fm = (2 * n + 1) / x * y - ym;
        ym = y; y = fm;
    }
    out[2] = ym; out[3] = y;
    /* j_l: upward when x dominates l, else downward */
    if (x >= l + 1) {
        jm = j0; j = sx / (x * x) - cx / x;
        for (n = 1; n < l; n++) {
            fm = (2 * n + 1) / x * j - jm;
            jm = j; j = fm;
        }
        out[0] = jm; out[1] = j;
        return;
    }
    miller(l, x, l + 18 + (int)(2.0 * sqrt((double)l)), -1.0, f);
    /* normalised by the Wronskian j_1 y_0 - j_0 y_1 = 1/x^2, written
     * without y: special._wronskian_scale */
    scale = 1.0 / (f[3] * (cx + x * sx) - f[2] * x * cx);
    out[0] = f[0] * scale;
    out[1] = f[1] * scale;
}

/* e^x k_n(x) by its terminating (all-positive) series */
static double khat_closed(int n, double x)
{
    double term = 1.0, acc = 1.0;
    int m;
    for (m = 0; m < n; m++) {
        term *= (n - m) * (n + m + 1) / (2.0 * x * (m + 1));
        acc += term;
    }
    return Py_MATH_PI / (2.0 * x) * acc;
}

/* e^-x i_n(x) by its terminating series; well conditioned for x >= n(n+1) */
static double ihat_closed(int n, double x)
{
    double term_p = 1.0, term_q = 1.0, p = 1.0, q = 1.0, c, sign;
    int m;
    for (m = 0; m < n; m++) {
        c = (n - m) * (n + m + 1) / (2.0 * x * (m + 1));
        term_p *= -c;
        term_q *= c;
        p += term_p;
        q += term_q;
    }
    sign = (n + 1) % 2 == 0 ? 1.0 : -1.0;
    return (p + sign * exp(-2.0 * x) * q) / (2.0 * x);
}

/* out = (ihat_{l-1}, ihat_l, khat_{l-1}, khat_l), i scaled by e^-x and k
 * by e^x; ihat_{-1} = e^-x cosh(x)/x, khat_{-1} = khat_0 */
static void ik_pair_scaled(int l, double x, double *out)
{
    double i0 = -expm1(-2.0 * x) / (2.0 * x);
    double k0 = Py_MATH_PI / (2.0 * x), top, f[4], scale;
    if (l == 0) {
        out[0] = (1.0 + exp(-2.0 * x)) / (2.0 * x);
        out[1] = i0; out[2] = k0; out[3] = k0;
        return;
    }
    out[2] = khat_closed(l - 1, x);
    out[3] = khat_closed(l, x);
    if (x >= l * (l + 1.0)) {
        out[0] = ihat_closed(l - 1, x);
        out[1] = ihat_closed(l, x);
        return;
    }
    /* the start order must top both l and x for the minimal solution */
    top = x > l ? x : (double)l;
    miller(l, x, (int)top + 20 + (int)(2.0 * sqrt(top)), 1.0, f);
    scale = i0 / f[3];
    out[0] = f[0] * scale;
    out[1] = f[1] * scale;
}

/* Riccati pair fg = (F, F', G, G') at x: F = x j_l, G = -x y_l when
 * oscillatory (kind 1); F = x i_l e^-x, G = x k_l e^x when evanescent. */
static void riccati(int kind, int l, double x, double *fg)
{
    double b[4];
    if (kind == 1) {
        jy_pair(l, x, b);
        fg[2] = -x * b[3];
        fg[3] = -(x * b[2] - l * b[3]);
    } else {
        ik_pair_scaled(l, x, b);
        fg[2] = x * b[3];
        fg[3] = -x * b[2] - l * b[3];
    }
    fg[0] = x * b[1];
    fg[1] = x * b[0] - l * b[1];
}

/* Fundamental-pair expansion v = A F + B G of the solution on one substep
 * starting at a. */
typedef struct {
    int kind;           /* 0 power, 1 oscillatory, -1 evanescent */
    int l;
    double k, a, A, B;
} Local;

static void local_kind(Local *loc, int l, double k2, double a, int power)
{
    loc->l = l;
    loc->a = a;
    loc->kind = power ? 0 : k2 > 0.0 ? 1 : -1;
    loc->k = power ? 0.0 : sqrt(k2 > 0.0 ? k2 : -k2);
}

/* the expansion on the substep from a that takes the state (va, dva) */
static void local_init(Local *loc, int l, double k2, double a, double va,
                       double dva, int power)
{
    double k, fg[4], det;
    local_kind(loc, l, k2, a, power);
    if (power) {
        loc->A = (a * dva + l * va) / (2 * l + 1);
        loc->B = ((l + 1) * va - a * dva) / (2 * l + 1);
        return;
    }
    k = loc->k;
    riccati(loc->kind, l, k * a, fg);
    if (loc->kind == 1) {       /* Wronskian F G' - F' G = -1 */
        loc->A = (dva * fg[2] - va * k * fg[3]) / k;
        loc->B = (va * k * fg[1] - fg[0] * dva) / k;
    } else {
        det = k * (fg[0] * fg[3] - fg[1] * fg[2]);
        loc->A = (va * k * fg[3] - dva * fg[2]) / det;
        loc->B = (dva * fg[0] - va * k * fg[1]) / det;
    }
}

/* (v, v') at rho within the substep; the irregular member G, which
 * overflows near rho = 0 for high l, enters only where B != 0 */
static void local_eval(const Local *loc, double rho, double *v, double *dv)
{
    int l = loc->l;
    double t, tp, tm, x, fg[4], d, ep, em;
    if (loc->kind == 0) {
        t = rho / loc->a;
        tp = pow(t, l + 1);
        tm = pow(t, -l);
        *v = loc->A * tp + loc->B * tm;
        *dv = ((l + 1) * loc->A * tp / t - l * loc->B * tm / t) / loc->a;
        return;
    }
    x = loc->k * rho;
    riccati(loc->kind, l, x, fg);
    if (loc->kind == -1) {      /* undo the scaling relative to a */
        d = x - loc->k * loc->a;
        ep = exp(d);
        em = exp(-d);
        fg[0] *= ep; fg[1] *= ep; fg[2] *= em; fg[3] *= em;
    }
    *v = loc->A * fg[0] + (loc->B != 0.0 ? loc->B * fg[2] : 0.0);
    *dv = loc->k * (loc->A * fg[1] + (loc->B != 0.0 ? loc->B * fg[3] : 0.0));
}

/* the march's first substep, from a: the regular member alone, B = 0,
 * with A scaling (v, v') at end to unit length; a zero norm there (j_l
 * underflows) gives A = inf (the twin's `end`) */
static void local_regular(Local *loc, int l, double k2, double a,
                          double end, int power)
{
    double v, dv;
    local_kind(loc, l, k2, a, power);
    loc->A = 1.0;
    loc->B = 0.0;
    local_eval(loc, end, &v, &dv);
    loc->A = 1.0 / hypot(v, dv);
}

/* int_lo^hi v^2 by 8-point Gauss-Legendre */
static double panel(const Local *loc, double lo, double hi)
{
    double mid = 0.5 * (lo + hi), half = 0.5 * (hi - lo), acc = 0.0, v, dv;
    int i;
    for (i = 0; i < 8; i++) {
        local_eval(loc, mid + half * G8N[i], &v, &dv);
        acc += G8W[i] * v * v;
    }
    return acc * half;
}

static int use_power(double k2, double a, double b)
{
    return fabs(k2) * b * (b - a) < 1e-14;
}

static int substeps(double a, double b, double k2, int power)
{
    int n;
    if (power)
        n = (int)ceil(log(b / a) / log(POWER_RATIO_CAP));
    else
        n = (int)ceil(sqrt(fabs(k2)) * (b - a) / PHASE_CAP);
    return n > 1 ? n : 1;
}

typedef struct {
    double p, q, i_core, i_total, i_logoff, lam, r_eps;
    int overflow;
    long zeros;
} March;

static double start_radius(const double *r)
{
    return 0.5 * r[1] < EPS_ORIGIN ? 0.5 * r[1] : EPS_ORIGIN;
}

/* the number of substeps, so of step-table rows, of a march */
static Py_ssize_t count_substeps(Py_ssize_t n, const double *r,
                                 const double *k2)
{
    double a, b;
    Py_ssize_t ish, total = 0;
    for (ish = 0; ish < n; ish++) {
        a = ish > 0 ? r[ish] : start_radius(r);
        b = r[ish + 1];
        total += substeps(a, b, k2[ish], use_power(k2[ish], a, b));
    }
    return total;
}

/* March the regular solution of channel l through the n shells bounded by
 * r[0..n]; see qcloak._kernel_py.propagate.  want_norms integrates v^2;
 * core_only then computes no panel beyond R_CORE, so i_total equals i_core.
 * rows, unless NULL, receives one step-table row per substep.  out->zeros
 * counts the sign changes of v between substep ends, which is every zero
 * of v. */
static void march(int l, Py_ssize_t n, const double *r, const double *k2,
                  const double *w, int want_norms, int core_only,
                  double *rows, March *out)
{
    double r_eps = start_radius(r);
    double p = 0.0, q = 0.0;
    double lam = 0.0, i_core = 0.0, i_total = 0.0, i_logoff = 0.0;
    double a, b, sa, sb, m, dlam, f, add_core, add_total, scale;
    Py_ssize_t ish;
    int isub, nsub, power, neg, overflow = 0;
    long zeros = 0;
    Local loc;

    for (ish = 0; ish < n; ish++) {
        a = ish > 0 ? r[ish] : r_eps;
        b = r[ish + 1];
        if (ish > 0 && w[ish] != w[ish - 1]) {
            /* v continuous; sigma*u' continuous with u = v/rho */
            q = (w[ish - 1] / w[ish]) * (q - p / a) + p / a;
            m = hypot(p, q);
            p /= m;
            q /= m;
            lam += log(m);
            if (want_norms) {
                f = 1.0 / (m * m);
                i_core *= f;
                i_total *= f;
            }
        }
        power = use_power(k2[ish], a, b);
        nsub = substeps(a, b, k2[ish], power);
        for (isub = 0; isub < nsub; isub++) {
            if (power) {        /* geometric substeps */
                sa = a * pow(b / a, (double)isub / nsub);
                sb = a * pow(b / a, (double)(isub + 1) / nsub);
            } else {
                sa = a + (b - a) * isub / nsub;
                sb = a + (b - a) * (isub + 1) / nsub;
            }
            /* the first substep takes the regular member alone */
            if (ish == 0 && isub == 0)
                local_regular(&loc, l, k2[ish], sa, sb, power);
            else
                local_init(&loc, l, k2[ish], sa, p, q, power);
            if (want_norms) {
                add_core = 0.0;
                add_total = 0.0;
                if (sa < R_CORE && R_CORE < sb) {
                    add_core = add_total = panel(&loc, sa, R_CORE);
                    if (!core_only)
                        add_total += panel(&loc, R_CORE, sb);
                } else if (sb <= R_CORE) {
                    add_core = add_total = panel(&loc, sa, sb);
                } else if (!core_only) {
                    add_total = panel(&loc, sa, sb);
                }
                scale = i_logoff != 0.0 ? exp(-i_logoff) : 1.0;
                i_core += add_core * scale;
                i_total += add_total * scale;
            }
            if (rows != NULL) {
                rows[0] = sb + 1e-15;
                rows[1] = loc.kind;
                rows[2] = loc.k;
                rows[3] = sa;
                rows[4] = loc.A;
                rows[5] = loc.B;
                rows[6] = lam;
                rows += STEP_COLS;
            }
            neg = p < 0.0;
            local_eval(&loc, sb, &p, &q);
            zeros += (p < 0.0) != neg;
            m = hypot(p, q);
            p /= m;
            q /= m;
            dlam = log(m);
            lam += dlam;
            if (want_norms) {
                f = exp(-2.0 * dlam);
                i_core *= f;
                i_total *= f;
                if (i_total > NORM_CEIL) {
                    i_core *= exp(-NORM_SHIFT);
                    i_total *= exp(-NORM_SHIFT);
                    i_logoff += NORM_SHIFT;
                    overflow = 1;
                }
            }
        }
    }
    *out = (March){p, q, i_core, i_total, i_logoff, lam, r_eps, overflow,
                   zeros};
}

/* v at the n_samp sorted radii samp_r into samp_v, in units of the final
 * state (log scale lam), from the n_rows step-table rows of a march; see
 * qcloak._kernel_py.sample.  Each substep takes the samples up to its
 * end; radii beyond the last substep read 0. */
static void sample_rows(int l, const double *rows, Py_ssize_t n_rows,
                        double lam, double r_eps, Py_ssize_t n_samp,
                        const double *samp_r, double *samp_v)
{
    double f, scale, dv;
    Py_ssize_t j, si = 0;
    Local loc;
    loc.l = l;
    for (j = 0; j < n_rows && si < n_samp; j++, rows += STEP_COLS) {
        if (samp_r[si] > rows[0])
            continue;
        loc.kind = (int)rows[1];
        loc.k = rows[2];
        loc.a = rows[3];
        loc.A = rows[4];
        loc.B = rows[5];
        f = rows[6] - lam;
        scale = exp(f > 700.0 ? 700.0 : f);
        for (; si < n_samp && samp_r[si] <= rows[0]; si++) {
            local_eval(&loc, samp_r[si] < r_eps ? r_eps : samp_r[si],
                       &samp_v[si], &dv);
            samp_v[si] *= scale;
        }
    }
    for (; si < n_samp; si++)
        samp_v[si] = 0.0;
}

/* ---- CPython glue ---------------------------------------------------- */

static PyObject *KernelResult;      /* qcloak._kernel_py.KernelResult */
static PyObject *Steps;             /* qcloak._kernel_py.Steps */
static long CORE_ONLY = -1;         /* qcloak._kernel_py.CORE_ONLY */

/* Floats of a tuple into buf; a tuple, unlike a list, cannot change size
 * while an item's __float__ runs. */
static int copy_doubles(PyObject *tuple, double *buf)
{
    Py_ssize_t i;
    for (i = 0; i < PyTuple_GET_SIZE(tuple); i++) {
        buf[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(tuple, i));
        if (buf[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static PyObject *float_list(const double *v, Py_ssize_t n)
{
    PyObject *list = PyList_New(n), *item;
    Py_ssize_t i;
    for (i = 0; list != NULL && i < n; i++) {
        if ((item = PyFloat_FromDouble(v[i])) == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, item);
    }
    return list;
}

static PyObject *kernel_propagate(PyObject *self, PyObject *args,
                                  PyObject *kwargs)
{
    static char *kwlist[] = {"l", "r", "k2", "w", "want_norms", "keep_steps",
                             NULL};
    int l, want_norms = 1, keep_steps = 0, i;
    double *buf = NULL, *r, *k2, *w;
    PyObject *obj[3], *tup[3] = {NULL, NULL, NULL};
    PyObject *rows = NULL, *steps = NULL, *res = NULL;
    Py_ssize_t n;
    March m;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOOO|ip:propagate",
                                     kwlist, &l, &obj[0], &obj[1], &obj[2],
                                     &want_norms, &keep_steps))
        return NULL;
    if (want_norms != 0 && want_norms != 1 && want_norms != CORE_ONLY) {
        PyErr_Format(PyExc_ValueError, "want_norms must be False, True or "
                     "CORE_ONLY (%ld), got %d", CORE_ONLY, want_norms);
        return NULL;
    }
    for (i = 0; i < 3; i++)
        if ((tup[i] = PySequence_Tuple(obj[i])) == NULL)
            goto done;
    n = PyTuple_GET_SIZE(tup[1]);
    if (l < 0) {
        PyErr_Format(PyExc_ValueError, "channel l=%d is negative", l);
        goto done;
    }
    if (n < 1 || PyTuple_GET_SIZE(tup[0]) != n + 1
            || PyTuple_GET_SIZE(tup[2]) != n) {
        PyErr_Format(PyExc_ValueError, "need len(r) == len(k2) + 1 == "
                     "len(w) + 1 >= 2, got len(r) = %zd, len(k2) = %zd, "
                     "len(w) = %zd", PyTuple_GET_SIZE(tup[0]), n,
                     PyTuple_GET_SIZE(tup[2]));
        goto done;
    }
    buf = PyMem_Calloc(3 * n + 1, sizeof(double));
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    r = buf;
    k2 = r + n + 1;
    w = k2 + n;
    if (copy_doubles(tup[0], r) || copy_doubles(tup[1], k2)
            || copy_doubles(tup[2], w))
        goto done;
    /* the rows go straight into a bytes object that nothing else sees yet */
    if (keep_steps && (rows = PyBytes_FromStringAndSize(NULL,
            count_substeps(n, r, k2) * STEP_COLS * sizeof(double))) == NULL)
        goto done;

    Py_BEGIN_ALLOW_THREADS
    march(l, n, r, k2, w, want_norms != 0, want_norms == CORE_ONLY,
          rows != NULL ? (double *)PyBytes_AS_STRING(rows) : NULL, &m);
    Py_END_ALLOW_THREADS

    if (rows == NULL)
        steps = Py_NewRef(Py_None);
    else if ((steps = PyObject_CallFunction(Steps, "Odd", rows, m.lam,
                                            m.r_eps)) == NULL)
        goto done;
    res = PyObject_CallFunction(KernelResult, "dddddOOl", m.p, m.q,
                                m.i_core, m.i_total, m.i_logoff, steps,
                                m.overflow ? Py_True : Py_False, m.zeros);
done:
    PyMem_Free(buf);
    Py_XDECREF(rows);
    Py_XDECREF(steps);
    for (i = 0; i < 3; i++)
        Py_XDECREF(tup[i]);
    return res;
}

static PyObject *kernel_sample(PyObject *self, PyObject *args)
{
    int l;
    double lam, r_eps, *sr = NULL;
    PyObject *steps, *obj, *tup = NULL, *res = NULL;
    Py_buffer rows = {NULL};
    Py_ssize_t n_samp;

    if (!PyArg_ParseTuple(args, "iO!O:sample", &l, &PyTuple_Type, &steps,
                          &obj)
            || !PyArg_ParseTuple(steps, "y*dd:sample", &rows, &lam, &r_eps))
        return NULL;
    if (rows.len % (STEP_COLS * sizeof(double)) != 0) {
        PyErr_Format(PyExc_ValueError, "step rows must hold a multiple of "
                     "%d doubles, got %zd bytes", STEP_COLS, rows.len);
        goto done;
    }
    if ((tup = PySequence_Tuple(obj)) == NULL)
        goto done;
    n_samp = PyTuple_GET_SIZE(tup);
    /* one block: the radii, then the values */
    if ((sr = PyMem_Calloc(2 * n_samp + 1, sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (copy_doubles(tup, sr))
        goto done;

    Py_BEGIN_ALLOW_THREADS
    sample_rows(l, (const double *)rows.buf,
                rows.len / (Py_ssize_t)(STEP_COLS * sizeof(double)), lam,
                r_eps, n_samp, sr, sr + n_samp);
    Py_END_ALLOW_THREADS

    res = float_list(sr + n_samp, n_samp);
done:
    PyMem_Free(sr);
    Py_XDECREF(tup);
    PyBuffer_Release(&rows);
    return res;
}

static PyMethodDef kernel_methods[] = {
    {"propagate", (PyCFunction)(void (*)(void))kernel_propagate,
     METH_VARARGS | METH_KEYWORDS,
     "propagate($module, l, r, k2, w, want_norms=True, keep_steps=False)\n"
     "--\n\n"
     "See qcloak._kernel_py.propagate; identical contract."},
    {"sample", (PyCFunction)kernel_sample, METH_VARARGS,
     "sample($module, l, steps, sample_r)\n"
     "--\n\n"
     "See qcloak._kernel_py.sample; identical contract."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Compiled propagation kernel: C twin of qcloak._kernel_py.", -1,
    kernel_methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    PyObject *twin, *core_only, *module;
    if (KernelResult == NULL) {
        if ((twin = PyImport_ImportModule("qcloak._kernel_py")) == NULL)
            return NULL;
        core_only = PyObject_GetAttrString(twin, "CORE_ONLY");
        CORE_ONLY = core_only != NULL ? PyLong_AsLong(core_only) : -1;
        Py_XDECREF(core_only);
        if (!PyErr_Occurred())
            KernelResult = PyObject_GetAttrString(twin, "KernelResult");
        if (KernelResult != NULL)
            Steps = PyObject_GetAttrString(twin, "Steps");
        Py_DECREF(twin);
        if (Steps == NULL) {
            Py_CLEAR(KernelResult);
            return NULL;
        }
    }
    module = PyModule_Create(&kernel_module);
    if (module != NULL && PyModule_AddStringConstant(
            module, "SOURCE_CRC32", QCLOAK_SOURCE_CRC32) < 0)
        Py_CLEAR(module);
    return module;
}
