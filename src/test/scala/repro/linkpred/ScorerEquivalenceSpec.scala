package repro.linkpred

import repro.SparkSpec
import repro.core._
import repro.tables.TableII
import scala.io.Source

/** Holds every scorer to outputs recorded from the per-model training loops
  * and per-pair scorers that the shared trainer and batched scoring path
  * replaced: the values must match exactly, not within a tolerance. The
  * fixture is `TestGraphs.tinyDataset` with each model's default
  * configuration and seed (`src/test/resources/golden/`, one value a line).
  * Batched scoring must also equal pair-by-pair scoring.
  */
class ScorerEquivalenceSpec extends SparkSpec {

  private lazy val data = TestGraphs.tinyDataset(spark)
  private lazy val pairs = data.testPos ++ data.testNeg

  private def golden(key: String): Seq[String] = {
    val src = Source.fromResource(s"golden/$key.txt")
    try src.getLines().toList finally src.close()
  }

  private def assertSame[A](what: String, got: Seq[A], want: Seq[A]): Unit = {
    assert(got.length == want.length, s"$what: ${got.length} values, want ${want.length}")
    val diff = got.indices.find(i => got(i) != want(i))
    assert(diff.isEmpty, diff.map(i => s"$what differs first at $i: ${got(i)} vs ${want(i)}").getOrElse(""))
  }

  private val models: Seq[LinkPredictor] = Seq(new DeepWalk(), new Node2Vec(), new Seal(), new Vgae(),
    new GeniePathLP(), new CompGcnLP(), new PaGnn(), new Alpc(AlpcConfig()),
    new Alpc(AlpcConfig(useThreshold = false)), new Alpc(AlpcConfig(useContrastive = false)))

  private lazy val fitted: Map[String, LinkScorer] = models.map(m => m.name -> m.fit(data)).toMap

  test("the fixture split is the recorded one") {
    assertSame("test pairs", pairs.toSeq.map { case (u, v) => s"$u $v" }, golden("pairs"))
  }

  test("the fixture covers every Table II method") {
    assert(models.map(_.name) == TableII.methodOrder)
  }

  TableII.methodOrder.foreach { name =>
    test(s"$name scores equal the recorded values and the pair-by-pair scores") {
      val s = fitted(name)
      val all = s.scoreAll(pairs).toSeq
      assertSame(s"$name scoreAll", all, golden(s"scores_$name").map(_.toDouble))
      assertSame(s"$name score", pairs.toSeq.map { case (u, v) => s.score(u, v) }, all)
    }
  }

  test("ALPC thresholds and adaptive acceptance equal the recorded values") {
    val alpc = fitted("ALPC").asInstanceOf[AlpcScorer]
    val ths = alpc.thresholds(Array.range(0, data.n)).toSeq
    assertSame("thresholds", ths, golden("alpc_thresholds").map(_.toDouble))
    assertSame("thresholdOf", (0 until data.n).map(alpc.thresholdOf), ths)
    val accepted = alpc.acceptAll(pairs).toSeq
    assertSame("acceptAll", accepted, golden("alpc_accept").map(_.toBoolean))
    assertSame("acceptAdaptive", pairs.toSeq.map { case (u, v) => alpc.acceptAdaptive(u, v) }, accepted)
  }

  test("the ensemble's scores and acceptance equal the recorded values") {
    val weekly = Seq(5L, 6L, 7L).map { s =>
      new Alpc(AlpcConfig(dim = 8, layers = 1, k = 4, epochs = 20, seed = s)).fit(data).z
    }
    val ens = Ensemble.fit(weekly, data, EnsembleConfig(epochs = 25, maxTrainPairs = 2000))
    val all = ens.scoreAll(pairs).toSeq
    assertSame("ensemble scoreAll", all, golden("ensemble_scores").map(_.toDouble))
    assertSame("ensemble score", pairs.toSeq.map { case (u, v) => ens.score(u, v) }, all)
    val accepted = ens.acceptAll(pairs).toSeq
    assertSame("ensemble acceptAll", accepted, golden("ensemble_accept").map(_.toBoolean))
    assertSame("ensemble accept", pairs.toSeq.map { case (u, v) => ens.accept(u, v) }, accepted)
  }

  test("an empty batch scores to nothing") {
    fitted.values.foreach(s => assert(s.scoreAll(Array.empty).isEmpty))
  }
}
