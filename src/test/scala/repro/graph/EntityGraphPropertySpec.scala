package repro.graph

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Pins the CSR graph's neighbourhood features and typed sampling against
  * their `Set` definitions on random undirected graphs.
  */
class EntityGraphPropertySpec extends AnyFunSuite {

  private def holds(p: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(200), p)
    assert(r.passed, Pretty.pretty(r))
  }

  /** (n, edges (u, v, relType)) with u ≠ v. */
  private val graphs: Gen[(Int, List[(Int, Int, Int)])] = for {
    n <- Gen.choose(2, 14)
    edges <- Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1), Gen.choose(0, 1)))
  } yield (n, edges.filter(e => e._1 != e._2))

  private def nbrs(edges: List[(Int, Int, Int)], x: Int, rel: Option[Int] = None): Set[Int] =
    edges.collect {
      case (a, b, t) if a == x && rel.forall(_ == t) => b
      case (a, b, t) if b == x && rel.forall(_ == t) => a
    }.toSet

  test("commonNeighbors, adamicAdar and jaccard match their Set definitions") {
    holds(Prop.forAll(graphs) { case (n, edges) =>
      val g = EntityGraph.fromEdges(edges, n)
      val nb = Array.tabulate(n)(nbrs(edges, _))
      (0 until n).forall(u => g.degree(u) == nb(u).size) &&
      (for (u <- 0 until n; v <- 0 until n) yield {
        val common = nb(u) intersect nb(v)
        val union = nb(u) union nb(v)
        val aa = common.toSeq.map(w => 1.0 / math.log(nb(w).size + math.E)).sum
        g.commonNeighbors(u, v) == common.size &&
        math.abs(g.adamicAdar(u, v) - aa) < 1e-12 &&
        g.jaccard(u, v) == (if (union.isEmpty) 0.0 else common.size.toDouble / union.size)
      }).forall(identity)
    })
  }

  test("sampleNeighborsOfType draws only neighbours of that type, or self when there are none") {
    holds(Prop.forAll(graphs, Gen.choose(0, 2), Gen.long) { case ((n, edges), rel, seed) =>
      val g = EntityGraph.fromEdges(edges, n)
      val k = 3
      val drawn = g.sampleNeighborsOfType(k, rel, new Random(seed))
      // a pair listed under several types is kept under its smallest one
      val typed = Array.tabulate(n)(u => nbrs(edges, u).filter { v =>
        edges.filter(e => Set(e._1, e._2) == Set(u, v)).map(_._3).min == rel
      })
      drawn.length == n * k && (0 until n * k).forall { i =>
        val u = i / k
        if (typed(u).isEmpty) drawn(i) == u else typed(u).contains(drawn(i))
      }
    })
  }
}
