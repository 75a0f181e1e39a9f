package repro.linkpred

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** Pins the ranking metrics against their brute-force definitions. */
class MetricsPropertySpec extends AnyFunSuite {

  private def holds(p: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), p)
    assert(r.passed, Pretty.pretty(r))
  }

  // few distinct values, so ties are common
  private val score = Gen.choose(0, 6).map(_ / 6.0)
  private val scores = Gen.nonEmptyListOf(score).map(_.toArray)

  test("auc equals the pairwise definition with ties counting one half") {
    holds(Prop.forAll(scores, scores) { (pos, neg) =>
      val wins = for (p <- pos; n <- neg) yield if (p > n) 1.0 else if (p == n) 0.5 else 0.0
      Metrics.auc(pos, neg) == wins.sum / (pos.length * neg.length)
    })
  }

  test("bestGlobalThreshold is the smallest score cut of maximal accuracy") {
    val labelled = Gen.nonEmptyListOf(Gen.zip(score, Gen.oneOf(0.0, 1.0)))
    holds(Prop.forAll(labelled) { xs =>
      val (s, y) = (xs.map(_._1).toArray, xs.map(_._2).toArray)
      val brute = s.distinct.sorted.maxBy(t => Metrics.accuracy(s, y, t))
      Metrics.bestGlobalThreshold(s, y) == brute
    })
  }
}
