package repro.perfbench

import repro.world.EntityWorld
import scala.util.Random

/** The targeting requests a workload sends, generated from its seed.
  *
  * A phrase set is a pair of entity names from one topic's six most popular
  * entities — what a marketer types for a service anchored on that topic.
  * With 12 topics that gives 12 × C(6,2) = 180 distinct sets. About one
  * request in four also carries a phrase that is not in the Entity Dict, as a
  * real marketer's query might.
  */
object Workloads {

  final case class Request(topic: Int, phrases: Seq[String])

  val Names: Seq[String] = Seq("target_unique", "target_hot")
  val TopPerTopic = 6
  val HotSets = 4

  /** Every distinct (topic, phrase pair), in a fixed order. */
  def phraseSets(world: EntityWorld): IndexedSeq[Request] =
    (0 until world.cfg.nTopics).flatMap { t =>
      val top = world.entities.filter(_.topic == t).sortBy(e => (-e.popularity, e.id))
        .take(TopPerTopic).map(_.name)
      top.combinations(2).map(pair => Request(t, pair.toSeq))
    }

  /** All phrase sets in a seeded order, each exactly once. */
  def unique(world: EntityWorld, seed: Long): IndexedSeq[Request] = {
    val r = new Random(seed * 7877L + 13)
    r.shuffle(phraseSets(world)).map { q =>
      if (r.nextInt(4) == 0) q.copy(phrases = q.phrases :+ s"unlisted_phrase_${r.nextInt(1000000)}")
      else q
    }
  }

  /** `HotSets` phrase sets chosen by the seed, cycled for `n` requests. */
  def hot(world: EntityWorld, seed: Long, n: Int): IndexedSeq[Request] = {
    val sets = unique(world, seed).take(HotSets)
    IndexedSeq.tabulate(n)(i => sets(i % sets.length))
  }

  /** The request stream of a workload, long enough for any run. */
  def stream(name: String, world: EntityWorld, seed: Long): IndexedSeq[Request] = name match {
    case "target_unique" => unique(world, seed)
    case "target_hot"    => hot(world, seed, 10000)
    case other           => throw new IllegalArgumentException(s"unknown workload $other")
  }
}
