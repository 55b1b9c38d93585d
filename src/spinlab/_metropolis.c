/* The Metropolis accept-and-record loop of spinlab.qemcmc._metropolis.

   One call runs one pre-drawn block of n_steps x n_chains moves and log u
   values, row by row.  Chain c proposes p = idx[c] ^ move (flip) or
   p = move, takes it when log u < scale * (t[p] - t[idx[c]]), and after
   global step s = first_step + 1, ... with s - burn_in a positive multiple
   k of thinning, writes its state to records[c, k - 1].

   spinlab._native builds this with -O2 -ffp-contract=off and without
   -ffast-math, so the subtraction, the product and the comparison round
   as numpy's do (and 1.0 * d is d bitwise, nan and -inf included).

   Returns the number of accepted moves, or -1 after writing the first
   proposal outside [0, dim) to *bad, before that proposal is read. */

#include <stdint.h>

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
            int64_t i = idx[c];
            int64_t p = flip ? (i ^ move[c]) : move[c];
            if (p < 0 || p >= dim) {
                *bad = p;
                return -1;
            }
            if (lu[c] < scale * (table[p] - table[i])) {
                idx[c] = p;
                accepted++;
            }
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
