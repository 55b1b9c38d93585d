/* spinlab's compiled kernels: the Metropolis accept-and-record loop, its
   single-flip move draw, the single-qubit gate layer and the
   transverse-field sum sum_k X_k.  Their only callers are spinlab._native's
   four wrappers (metropolis, flip_draw, rotate, x_sum); each checks every
   array's dtype, contiguity and size before it passes a pointer.

   spinlab._native builds this with -O2 -ffp-contract=off and without
   -ffast-math, so every sum and product rounds once, as numpy's do (and
   1.0 * d is d bitwise, nan and -inf included). */

#include <stdint.h>

/* One call runs one pre-drawn block of n_steps x n_chains moves and log u
   values, row by row.  Chain c proposes p = idx[c] ^ move (flip) or
   p = move, takes it when log u < scale * (t[p] - t[idx[c]]), and after
   global step s = first_step + 1, ... with s - burn_in a positive multiple
   k of thinning, writes its state to records[c, k - 1].

   The accept is a select, with no branch on its (unpredictable) outcome,
   so the chains' steps overlap; a comparison with nan is false, so it
   rejects, as numpy's < does.

   Returns the number of accepted moves, or -1 after writing the first
   proposal outside [0, dim) to *bad, before that proposal is read. */
int64_t spinlab_metropolis(const double *table, int64_t dim, double scale,
                           const int64_t *moves, const double *logu,
                           int64_t n_steps, int64_t n_chains, int32_t flip,
                           int64_t *idx, int64_t *records, int64_t n_records,
                           int64_t first_step, int64_t burn_in,
                           int64_t thinning, int64_t *bad)
{
    int64_t accepted = 0;
    for (int64_t s = 0; s < n_steps; s++) {
        const int64_t *move = moves + s * n_chains;
        const double *lu = logu + s * n_chains;
        for (int64_t c = 0; c < n_chains; c++) {
            const int64_t i = idx[c];
            const int64_t p = flip ? (i ^ move[c]) : move[c];
            if (p < 0 || p >= dim) {
                *bad = p;
                return -1;
            }
            const int64_t take = lu[c] < scale * (table[p] - table[i]);
            idx[c] = take ? p : i;
            accepted += take;
        }
        int64_t past = first_step + s + 1 - burn_in;
        if (past > 0 && past % thinning == 0 && past / thinning <= n_records) {
            int64_t col = past / thinning - 1;
            for (int64_t c = 0; c < n_chains; c++)
                records[c * n_records + col] = idx[c];
        }
    }
    return accepted;
}

/* The bitgen_t of numpy's random C API (numpy/random/bitgen.h), the
   struct behind Generator.bit_generator.ctypes.bit_generator. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} spinlab_bitgen;

/* out[0 .. count) = 1 << Generator.integers(0, n_sites) as numpy draws it
   for int64 output: Lemire's bounded draw on 32-bit words from the
   generator's own next_uint32 (so a buffered half-word of PCG64 is used as
   numpy uses it), rejecting a word whose low product half falls below
   (UINT32_MAX - (n_sites - 1)) % n_sites.  One site draws nothing.  The
   caller holds the bit generator's lock and keeps 1 <= n_sites <= 63. */
void spinlab_flip_masks(const spinlab_bitgen *bitgen, int64_t n_sites,
                        int64_t *out, int64_t count)
{
    const uint32_t excl = (uint32_t)n_sites;
    for (int64_t j = 0; j < count; j++) {
        uint64_t site = 0;
        if (excl > 1) {
            uint64_t m = (uint64_t)bitgen->next_uint32(bitgen->state) * excl;
            uint32_t leftover = (uint32_t)m;
            if (leftover < excl) {
                const uint32_t threshold = (UINT32_MAX - (excl - 1)) % excl;
                while (leftover < threshold) {
                    m = (uint64_t)bitgen->next_uint32(bitgen->state) * excl;
                    leftover = (uint32_t)m;
                }
            }
            site = m >> 32;
        }
        out[j] = (int64_t)((uint64_t)1 << site);
    }
}

/* In place on n complex entries (interleaved re, im), apply the 2x2 gates
   in order, gate g on qubit qubits[g] with gates[8g .. 8g+7] its row-major
   entries g00, g01, g10, g11, each re then im.  A qubit step moves the
   entry index by unit << qubit: unit is 1 for a vector or a flat stack of
   rows, m for a (2^L, m) block of columns.

   Each entry v with partner w becomes (g00 v) + (g01 w) and w becomes
   (g10 v) + (g11 w), numpy's operand order, each product the full
   (ar br - ai bi, ar bi + ai br) unfused.  For a gate whose every entry
   has a zero real or imaginary part (an X rotation, the Hadamard, the
   Y-basis map) that rounds as numpy's product does whether numpy fuses it
   into a multiply-add or not (short of a nan's sign, or the sign of a zero
   that a subnormal product underflows to). */
void spinlab_rotate(double *amps, int64_t n, int64_t unit,
                    const int64_t *qubits, const double *gates,
                    int64_t n_gates)
{
    for (int64_t g = 0; g < n_gates; g++) {
        const double *m = gates + 8 * g;
        const double ar = m[0], ai = m[1], br = m[2], bi = m[3];
        const double cr = m[4], ci = m[5], dr = m[6], di = m[7];
        const int64_t step = unit << qubits[g];
        for (int64_t base = 0; base < n; base += 2 * step) {
            for (int64_t j = base; j < base + step; j++) {
                double *v = amps + 2 * j, *w = amps + 2 * (j + step);
                const double vr = v[0], vi = v[1], wr = w[0], wi = w[1];
                v[0] = (ar * vr - ai * vi) + (br * wr - bi * wi);
                v[1] = (ar * vi + ai * vr) + (br * wi + bi * wr);
                w[0] = (cr * vr - ci * vi) + (dr * wr - di * wi);
                w[1] = (cr * vi + ci * vr) + (dr * wi + di * wr);
            }
        }
    }
}

/* out = sum_k X_k in over the 2^n_sites entries of in, each entry width
   doubles (1 real, 2 complex): out starts at 0.0 and, for k ascending,
   gains the entry whose index differs in bit k. */
void spinlab_x_sum(const double *in, double *out, int64_t n_sites,
                   int64_t width)
{
    const int64_t n = width << n_sites;
    for (int64_t d = 0; d < n; d++)
        out[d] = 0.0;
    for (int64_t k = 0; k < n_sites; k++) {
        const int64_t step = width << k;
        for (int64_t base = 0; base < n; base += 2 * step) {
            for (int64_t d = base; d < base + step; d++) {
                out[d] += in[d + step];
                out[d + step] += in[d];
            }
        }
    }
}
