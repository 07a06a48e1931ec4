package repro.core

import repro.graph.CSRGraph

/** ResAcc-lite — our rendition of ResAcc [Lin et al., ICDE 2020], the
  * "accumulate residue returning to the source" FORA accelerator the paper
  * benchmarks against.
  *
  * Idea: during the push phase, mass that flows *back to s* would seed walks
  * whose stop distribution is exactly π_s again; so instead of walking it,
  * accumulate it and redistribute it proportionally to the current estimate
  * before the Monte-Carlo phase (using π ≈ π̂/‖π̂‖₁ as the self-similar
  * proxy). This reduces both walk count and variance relative to FORA.
  *
  * This is a simplified ("lite") but behaviour-preserving version; see
  * DESIGN.md §4.
  */
object ResAcc {

  def run(g: CSRGraph, s: Int, eps: Double,
          alpha: Double = Common.DefaultAlpha, seed: Long = 1L): PPRResult = {
    Common.requireApprox(g, s, eps, alpha)
    val t0 = System.nanoTime()
    val n = g.n
    val w = math.ceil(Common.walkCountW(n, eps, 1.0 / n)).toLong
    val rMax = 1.0 / math.sqrt(g.m.toDouble * w)
    val push = FwdPush.run(g, s, rMax, alpha)
    val pi = push.pi
    val r = push.residue
    val stats = push.stats

    // Accumulated residue sitting at the source: its PPR contribution is
    // r(s)·π_s; approximate π_s by the normalized deterministic estimate.
    val rs = r(s)
    if (rs > 0.0) {
      var piSum = 0.0
      var i = 0
      while (i < n) { piSum += pi(i); i += 1 }
      if (piSum > 0.0) {
        val scale = rs / piSum
        i = 0
        while (i < n) { pi(i) += scale * pi(i); i += 1 }
        r(s) = 0.0
      }
    }

    WalkPhase.run(g, s, pi, r, w, None, alpha, seed, stats)
    stats.millis = (System.nanoTime() - t0) / 1000000L
    PPRResult(pi, r, stats)
  }
}
