// Conditioned reductions whose body computes — the CNN padding idiom — on
// the DSP and DA fabrics: Algorithm 1 expands only the points the condition
// keeps, so the reads the condition excludes, past either end of `x` and
// `y`, are never built.
// feed x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
// feed w = [10.0, 20.0, 30.0]
main(input float x[8], input float w[3], output float y[8], output float z[8]) {
    index i[0:7], k[0:2];
    DSP: y[i] = sum[k: i+k-1 >= 0 && i+k-1 < 8](x[i+k-1] * w[k]);
    DA: z[i] = sum[k: i+k-1 >= 0 && i+k-1 < 8](y[i+k-1] - w[k]);
}
