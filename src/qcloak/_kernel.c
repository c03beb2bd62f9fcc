/* Compiled propagation kernel: C twin of qcloak._kernel_py.
 *
 * Same contract and numerics as the pure-Python module; see its docstring.
 * The numerics are plain C99 and repeat the twin's operations in the same
 * order, so the two agree to rounding.  The CPython glue at the end converts
 * the arguments, runs the march with the GIL released and returns a
 * qcloak._kernel_py.KernelResult.  `propagate` is the one entry, and it
 * keeps nothing per shell: the library matches at the outer boundary only.
 * want_norms takes the twin's values: False, True, or its CORE_ONLY (read
 * from the twin at import), which integrates v^2 only inside R_CORE.
 *
 * Build in place with `python setup.py build_ext --inplace`.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* max |k| * (substep width); bounds both the e^(+-2) evanescent growth per
 * substep and the quadrature phase per panel */
static const double PHASE_CAP = 2.0;
static const double R_CORE = 1.0;            /* outer radius of i_core */
static const double POWER_RATIO_CAP = 1.25;  /* max b/a per power substep */
static const double EPS_ORIGIN = 1e-6;       /* power-law start radius */
static const double NORM_CEIL = 1e250;
static const double NORM_SHIFT = 100.0 * 2.302585092994045684;
static const double RENORM = 1e250;

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
 * n_start, normalised to f_0 = f0; out = (f_{l-1}, f_l).  s = -1 gives j_l,
 * s = +1 the scaled i_l. */
static void miller(int l, double x, int n_start, double s, double f0,
                   double *out)
{
    double fp = 0.0, f = 1e-40, fm, target = 0.0, target_m = 0.0, scale;
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
    scale = f0 / f;
    out[0] = target_m * scale;
    out[1] = target * scale;
}

/* out = (j_{l-1}, j_l, y_{l-1}, y_l); j_{-1} = cos/x, y_{-1} = sin/x */
static void jy_pair(int l, double x, double *out)
{
    double sx = sin(x), cx = cos(x);
    double j0 = sx / x, y0 = -cx / x, jm, j, ym, y, fm;
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
    miller(l, x, l + 18 + (int)(2.0 * sqrt((double)l)), -1.0, j0, out);
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
    double k0 = Py_MATH_PI / (2.0 * x), top;
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
    miller(l, x, (int)top + 20 + (int)(2.0 * sqrt(top)), 1.0, i0, out);
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

static void local_init(Local *loc, int l, double k2, double a, double va,
                       double dva, int power)
{
    double k, fg[4], det;
    loc->l = l;
    loc->a = a;
    if (power) {
        loc->kind = 0;
        loc->k = 0.0;
        loc->A = (a * dva + l * va) / (2 * l + 1);
        loc->B = ((l + 1) * va - a * dva) / (2 * l + 1);
        return;
    }
    loc->kind = k2 > 0.0 ? 1 : -1;
    k = loc->k = sqrt(k2 > 0.0 ? k2 : -k2);
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

/* (v, v') at rho within the substep */
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
    *v = loc->A * fg[0] + loc->B * fg[2];
    *dv = loc->k * (loc->A * fg[1] + loc->B * fg[3]);
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
    double p, q, i_core, i_total, i_logoff;
    int overflow;
    long zeros;
} March;

/* March the regular solution of channel l through the n shells bounded by
 * r[0..n]; see qcloak._kernel_py.propagate.  want_norms integrates v^2;
 * core_only then computes no panel beyond R_CORE, so i_total equals i_core.
 * samp_v receives the v at the n_samp sorted radii samp_r in units of the
 * final state; samp_lam is scratch.  out->zeros counts the sign changes of
 * v between substep ends, which is every zero of v. */
static void march(int l, Py_ssize_t n, const double *r, const double *k2,
                  const double *w, int want_norms, int core_only,
                  Py_ssize_t n_samp, const double *samp_r, double *samp_v,
                  double *samp_lam, March *out)
{
    double r_eps = 0.5 * r[1] < EPS_ORIGIN ? 0.5 * r[1] : EPS_ORIGIN;
    double h = hypot(r_eps, l + 1.0), p = r_eps / h, q = (l + 1.0) / h;
    double lam = 0.0, i_core = 0.0, i_total = 0.0, i_logoff = 0.0;
    double a, b, sa, sb, m, dlam, f, add_core, add_total, scale, dv;
    Py_ssize_t ish, si = 0;
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
            for (; si < n_samp && samp_r[si] <= sb + 1e-15; si++) {
                local_eval(&loc, samp_r[si] < r_eps ? r_eps : samp_r[si],
                           &samp_v[si], &dv);
                samp_lam[si] = lam;
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
    for (si = 0; si < n_samp; si++) {
        f = samp_lam[si] - lam;
        samp_v[si] *= exp(f > 700.0 ? 700.0 : f);
    }
    *out = (March){p, q, i_core, i_total, i_logoff, overflow, zeros};
}

/* ---- CPython glue ---------------------------------------------------- */

static PyObject *KernelResult;      /* qcloak._kernel_py.KernelResult */
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
    static char *kwlist[] = {"l", "r", "k2", "w", "want_norms", "sample_r",
                             NULL};
    int l, want_norms = 1, i;
    double *buf = NULL, *r, *k2, *w, *sr, *sv;
    PyObject *obj[4], *tup[4] = {NULL, NULL, NULL, NULL};
    PyObject *samples = NULL, *res = NULL;
    Py_ssize_t n, n_samp;
    March m;

    obj[3] = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOOO|iO:propagate",
                                     kwlist, &l, &obj[0], &obj[1], &obj[2],
                                     &want_norms, &obj[3]))
        return NULL;
    if (want_norms != 0 && want_norms != 1 && want_norms != CORE_ONLY) {
        PyErr_Format(PyExc_ValueError, "want_norms must be False, True or "
                     "CORE_ONLY (%ld), got %d", CORE_ONLY, want_norms);
        return NULL;
    }
    for (i = 0; i < 4; i++)
        if ((i < 3 || obj[3] != Py_None)
                && (tup[i] = PySequence_Tuple(obj[i])) == NULL)
            goto done;
    n = PyTuple_GET_SIZE(tup[1]);
    n_samp = tup[3] != NULL ? PyTuple_GET_SIZE(tup[3]) : 0;
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
    buf = PyMem_Calloc(3 * n + 1 + 3 * n_samp, sizeof(double));
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    r = buf;
    k2 = r + n + 1;
    w = k2 + n;
    sr = w + n;
    sv = sr + n_samp;
    if (copy_doubles(tup[0], r) || copy_doubles(tup[1], k2)
            || copy_doubles(tup[2], w)
            || (tup[3] != NULL && copy_doubles(tup[3], sr)))
        goto done;

    Py_BEGIN_ALLOW_THREADS
    march(l, n, r, k2, w, want_norms != 0, want_norms == CORE_ONLY,
          n_samp, sr, sv, sv + n_samp, &m);
    Py_END_ALLOW_THREADS

    samples = tup[3] != NULL ? float_list(sv, n_samp) : Py_NewRef(Py_None);
    if (samples == NULL)
        goto done;
    res = PyObject_CallFunction(KernelResult, "dddddOOl", m.p, m.q,
                                m.i_core, m.i_total, m.i_logoff, samples,
                                m.overflow ? Py_True : Py_False, m.zeros);
done:
    PyMem_Free(buf);
    Py_XDECREF(samples);
    for (i = 0; i < 4; i++)
        Py_XDECREF(tup[i]);
    return res;
}

static PyMethodDef kernel_methods[] = {
    {"propagate", (PyCFunction)(void (*)(void))kernel_propagate,
     METH_VARARGS | METH_KEYWORDS,
     "propagate($module, l, r, k2, w, want_norms=True, sample_r=None)\n"
     "--\n\n"
     "See qcloak._kernel_py.propagate; identical contract."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Compiled propagation kernel: C twin of qcloak._kernel_py.", -1,
    kernel_methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    PyObject *twin, *core_only;
    if (KernelResult == NULL) {
        if ((twin = PyImport_ImportModule("qcloak._kernel_py")) == NULL)
            return NULL;
        core_only = PyObject_GetAttrString(twin, "CORE_ONLY");
        CORE_ONLY = core_only != NULL ? PyLong_AsLong(core_only) : -1;
        Py_XDECREF(core_only);
        if (!PyErr_Occurred())
            KernelResult = PyObject_GetAttrString(twin, "KernelResult");
        Py_DECREF(twin);
        if (KernelResult == NULL)
            return NULL;
    }
    return PyModule_Create(&kernel_module);
}
