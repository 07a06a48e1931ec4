package repro.core

import repro.graph.CSRGraph

/** FORA and FORA+ (§6.1) — the state-of-the-art Approx-SSPPR baseline.
  *
  * Two phases: (1) FwdPush with r_max = 1/√(m·W), (2) Monte-Carlo refinement:
  * for each node v with leftover residue, W_v = ⌈r(s,v)·W⌉ walks from v, each
  * stopping walk adding r(s,v)/W_v to its stop node (Eq. 13-14). W is the
  * Chernoff count of Eq. (12) with μ = 1/n.
  */
object Fora {

  /** Index-free FORA. */
  def run(g: CSRGraph, s: Int, eps: Double,
          alpha: Double = Common.DefaultAlpha, seed: Long = 1L): PPRResult =
    runImpl(g, s, eps, alpha, seed, index = None)

  /** FORA+ — uses a pre-built walk index (built for ε_build ≤ ε to guarantee
    * enough stored walks; any shortfall is topped up with live walks).
    */
  def runIndexed(g: CSRGraph, s: Int, eps: Double, index: WalkIndex,
                 alpha: Double = Common.DefaultAlpha, seed: Long = 1L): PPRResult =
    runImpl(g, s, eps, alpha, seed, index = Some(index))

  private def runImpl(g: CSRGraph, s: Int, eps: Double, alpha: Double,
                      seed: Long, index: Option[WalkIndex]): PPRResult = {
    Common.requireApprox(g, s, eps, alpha, index)
    val t0 = System.nanoTime()
    val w = math.ceil(Common.walkCountW(g.n, eps, 1.0 / g.n)).toLong
    val push = FwdPush.run(g, s, 1.0 / math.sqrt(g.m.toDouble * w), alpha)
    WalkPhase.run(g, s, push.pi, push.residue, w, index, alpha, seed, push.stats)
    push.stats.millis = (System.nanoTime() - t0) / 1000000L
    push
  }
}
