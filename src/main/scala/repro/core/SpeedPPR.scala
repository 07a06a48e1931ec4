package repro.core

import repro.graph.CSRGraph

/** SpeedPPR (Algorithm 4) — the paper's Approx-SSPPR contribution.
  *
  * Phase 1 runs PowerPush with λ = m/W followed by the O(m) refinement so
  * that no node is active w.r.t. r_max = 1/W; consequently every node needs
  * W_v = ⌈r(s,v)·W⌉ ≤ ⌈d_v·r_max·W⌉ = d_v walks in phase 2, for at most m
  * walks in total. On scale-free graphs this yields the
  * O(n·log n·log(1/ε)) bound of Theorem 6.1, and the index version stores at
  * most m walks independently of ε.
  */
object SpeedPPR {

  def run(g: CSRGraph, s: Int, eps: Double,
          alpha: Double = Common.DefaultAlpha, seed: Long = 1L): PPRResult =
    runImpl(g, s, eps, alpha, seed, index = None)

  /** Index version: consumes the ε-independent d_v-walks-per-node index. */
  def runIndexed(g: CSRGraph, s: Int, eps: Double, index: WalkIndex,
                 alpha: Double = Common.DefaultAlpha, seed: Long = 1L): PPRResult =
    runImpl(g, s, eps, alpha, seed, index = Some(index))

  private def runImpl(g: CSRGraph, s: Int, eps: Double, alpha: Double,
                      seed: Long, index: Option[WalkIndex]): PPRResult = {
    Common.requireApprox(g, s, eps, alpha, index)
    val t0 = System.nanoTime()
    val w = math.ceil(Common.walkCountW(g.n, eps, 1.0 / g.n)).toLong
    // PowerPush with λ = m/W and the built-in refinement enforcing
    // r(s,v) ≤ d_v / W, so phase 2 needs W_v ≤ d_v walks (only dead ends
    // overflow a SpeedPPR index; they finish live).
    val push = PowerPush.run(g, s, g.m.toDouble / w, alpha, refineRMax = 1.0 / w)
    WalkPhase.run(g, s, push.pi, push.residue, w, index, alpha, seed, push.stats)
    push.stats.millis = (System.nanoTime() - t0) / 1000000L
    push
  }
}
